#include "fix/api.hpp"

int check() { return fix::tests_only(1) == 2 ? 0 : 1; }
