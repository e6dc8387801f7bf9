#include "fix/api.hpp"

namespace fix {

int orphan(int x) { return x > 0 ? orphan(x - 1) : 0; }

int tests_only(int x) { return detail::helper(x); }

int via_return(int x) { return 2 * x; }

}  // namespace fix
