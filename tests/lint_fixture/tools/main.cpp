#include "fix/api.hpp"

int run(int x) { return fix::via_return(x); }
