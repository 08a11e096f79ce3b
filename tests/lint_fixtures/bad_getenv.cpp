// Known-bad snippet for mvq_lint --selftest: raw std::getenv outside
// src/common/env.cpp. Scattered getenv calls race first use and dodge
// the knob registry; all reads go through mvq::env.
// NOT compiled; linted only.
#include <cstdlib>

const char *
homeDir()
{
    return std::getenv("HOME");
}
