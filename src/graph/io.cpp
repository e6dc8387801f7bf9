#include "graph/io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace parfw::io {

namespace {
/// Next line that is neither blank nor a '#' comment; false at EOF.
bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    std::size_t i = line.find_first_not_of(" \t\r");
    if (i == std::string::npos) continue;
    if (line[i] == '#') continue;
    return true;
  }
  return false;
}
}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  PARFW_CHECK_MSG(next_content_line(in, line), "edge list: missing header");
  std::istringstream header(line);
  vertex_t n = 0;
  std::size_t m = 0;
  PARFW_CHECK_MSG(static_cast<bool>(header >> n >> m),
                  "edge list: bad header '" << line << "'");
  Graph g(n);
  for (std::size_t e = 0; e < m; ++e) {
    PARFW_CHECK_MSG(next_content_line(in, line),
                    "edge list: expected " << m << " edges, got " << e);
    std::istringstream es(line);
    vertex_t src = 0, dst = 0;
    double w = 0;
    PARFW_CHECK_MSG(static_cast<bool>(es >> src >> dst >> w),
                    "edge list: bad edge line '" << line << "'");
    g.add_edge(src, dst, w);
  }
  return g;
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  PARFW_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  return read_edge_list(in);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << std::setprecision(17);  // round-trip exact for double weights
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges())
    out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
}

Graph read_dimacs(std::istream& in) {
  std::string line;
  vertex_t n = -1;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'c') continue;
    if (tag == 'p') {
      std::string kind;
      std::size_t m = 0;
      PARFW_CHECK_MSG(static_cast<bool>(ls >> kind >> n >> m),
                      "dimacs: bad problem line '" << line << "'");
      edges.reserve(m);
    } else if (tag == 'a') {
      vertex_t src = 0, dst = 0;
      double w = 0;
      PARFW_CHECK_MSG(static_cast<bool>(ls >> src >> dst >> w),
                      "dimacs: bad arc line '" << line << "'");
      PARFW_CHECK_MSG(n > 0, "dimacs: arc before problem line");
      edges.push_back(Edge{src - 1, dst - 1, w});  // DIMACS is 1-based
    }
  }
  PARFW_CHECK_MSG(n >= 0, "dimacs: no problem line");
  return Graph(n, std::move(edges));
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << std::setprecision(17);
  out << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges())
    out << "a " << (e.src + 1) << ' ' << (e.dst + 1) << ' ' << e.weight << '\n';
}

}  // namespace parfw::io
