#include "cdfg/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlp {

void write_cdfg(const Cdfg& g, std::ostream& os) {
  os << "cdfg " << g.name() << "\n";
  for (int i = 0; i < g.num_inputs(); ++i)
    os << "input " << g.input_name(i) << "\n";
  for (int i = 0; i < g.num_ops(); ++i) {
    const auto& o = g.op(i);
    os << "op " << o.name << " " << to_string(o.kind) << " "
       << g.value_name(o.lhs) << " " << g.value_name(o.rhs) << "\n";
  }
  for (int i = 0; i < g.num_outputs(); ++i) {
    const auto& o = g.output(i);
    os << "output " << o.name << " " << g.value_name(o.value) << "\n";
  }
}

std::string cdfg_to_string(const Cdfg& g) {
  std::ostringstream oss;
  write_cdfg(g, oss);
  return oss.str();
}

Cdfg read_cdfg(std::istream& is) {
  Cdfg g;
  std::unordered_map<std::string, ValueRef> values;
  auto lookup = [&](const std::string& n, int line) {
    auto it = values.find(n);
    HLP_REQUIRE(it != values.end(),
                "line " << line << ": unknown value '" << n << "'");
    return it->second;
  };

  std::string line;
  int line_no = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tok = split_ws(line);
    if (tok.empty()) continue;
    if (tok[0] == "cdfg") {
      HLP_REQUIRE(tok.size() == 2, "line " << line_no << ": cdfg <name>");
      g.set_name(tok[1]);
      saw_header = true;
    } else if (tok[0] == "input") {
      HLP_REQUIRE(tok.size() == 2, "line " << line_no << ": input <name>");
      const int idx = g.add_input(tok[1]);
      HLP_REQUIRE(values.emplace(tok[1], ValueRef::input(idx)).second,
                  "line " << line_no << ": duplicate value '" << tok[1] << "'");
    } else if (tok[0] == "op") {
      HLP_REQUIRE(tok.size() == 5,
                  "line " << line_no << ": op <name> <kind> <lhs> <rhs>");
      OpKind kind = OpKind::kAdd;
      try {
        kind = op_kind_from_name(tok[2]);
      } catch (const Error& e) {
        HLP_REQUIRE(false, "line " << line_no << ": " << e.what());
      }
      const int idx = g.add_op(tok[1], kind, lookup(tok[3], line_no),
                               lookup(tok[4], line_no));
      HLP_REQUIRE(values.emplace(tok[1], ValueRef::op(idx)).second,
                  "line " << line_no << ": duplicate value '" << tok[1] << "'");
    } else if (tok[0] == "output") {
      HLP_REQUIRE(tok.size() == 3, "line " << line_no << ": output <name> <value>");
      g.add_output(tok[1], lookup(tok[2], line_no));
    } else {
      HLP_REQUIRE(false, "line " << line_no << ": unknown directive '"
                                 << tok[0] << "'");
    }
  }
  HLP_REQUIRE(saw_header, "missing 'cdfg <name>' header");
  g.validate();
  return g;
}

Cdfg cdfg_from_string(const std::string& text) {
  std::istringstream iss(text);
  return read_cdfg(iss);
}

std::string cdfg_to_dot(const Cdfg& g) {
  std::ostringstream os;
  os << "digraph \"" << g.name() << "\" {\n";
  for (int i = 0; i < g.num_inputs(); ++i)
    os << "  \"" << g.input_name(i) << "\" [shape=invtriangle];\n";
  for (int i = 0; i < g.num_ops(); ++i) {
    const auto& o = g.op(i);
    os << "  \"" << o.name << "\" [shape="
       << (o.kind == OpKind::kAdd ? "circle" : "doublecircle") << ",label=\""
       << (o.kind == OpKind::kAdd ? "+" : "*") << "\\n" << o.name << "\"];\n";
    os << "  \"" << g.value_name(o.lhs) << "\" -> \"" << o.name << "\";\n";
    os << "  \"" << g.value_name(o.rhs) << "\" -> \"" << o.name << "\";\n";
  }
  for (int i = 0; i < g.num_outputs(); ++i) {
    const auto& o = g.output(i);
    os << "  \"" << o.name << "\" [shape=triangle];\n";
    os << "  \"" << g.value_name(o.value) << "\" -> \"" << o.name << "\";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace hlp
