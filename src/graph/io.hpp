// Graph file I/O: a simple edge-list text format and DIMACS .gr.
//
// Edge-list format: first non-comment line "n m", then m lines
// "src dst weight" (0-based). '#' starts a comment. DIMACS .gr is the
// 9th DIMACS shortest-path challenge format (1-based, 'a' arc lines).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace parfw::io {

Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);
void write_edge_list(const Graph& g, std::ostream& out);

Graph read_dimacs(std::istream& in);
void write_dimacs(const Graph& g, std::ostream& out);

}  // namespace parfw::io
