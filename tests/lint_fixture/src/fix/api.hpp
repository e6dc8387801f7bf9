// Fixture for have_callers_test.py: four namespace-scope functions, of
// which only the first two lack a front-door caller.
#pragma once

namespace fix {

/// Named by nothing but its own declaration and definition.
int orphan(int x);

/// Named only by a file under tests/.
int tests_only(int x);

/// Named only inside a `return fix::via_return(...)` in tools/.
int via_return(int x);

namespace detail {

/// Exempt: declared inside a detail namespace.
inline int helper(int x) { return x + 1; }

}  // namespace detail

}  // namespace fix
