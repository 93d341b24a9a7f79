#include "netlist/blif.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlp {

void BlifLibrary::add(Netlist model) {
  const std::string name = model.name();
  models_.insert_or_assign(name, std::move(model));
}

bool BlifLibrary::contains(const std::string& name) const {
  return models_.count(name) > 0;
}

const Netlist& BlifLibrary::get(const std::string& name) const {
  auto it = models_.find(name);
  HLP_REQUIRE(it != models_.end(), "model '" << name << "' not in library");
  return it->second;
}

void write_blif(const Netlist& n, std::ostream& os) {
  os << ".model " << n.name() << "\n.inputs";
  for (NetId i : n.inputs()) os << " " << n.net_name(i);
  os << "\n.outputs";
  for (NetId o : n.outputs()) os << " " << n.net_name(o);
  os << "\n";
  for (const auto& l : n.latches())
    os << ".latch " << n.net_name(l.d) << " " << n.net_name(l.q) << " 0\n";
  for (const auto& g : n.gates()) {
    os << ".names";
    for (NetId in : g.ins) os << " " << n.net_name(in);
    os << " " << n.net_name(g.out) << "\n";
    for (std::uint32_t m = 0; m < g.tt.num_rows(); ++m) {
      if (!g.tt.eval(m)) continue;
      for (int j = 0; j < g.tt.num_inputs(); ++j)
        os << (((m >> j) & 1u) ? '1' : '0');
      os << (g.tt.num_inputs() ? " " : "") << "1\n";
    }
  }
  os << ".end\n";
}

std::string blif_to_string(const Netlist& n) {
  std::ostringstream oss;
  write_blif(n, oss);
  return oss.str();
}

namespace {

// Expand a cover row like "1-0 1" into minterms of the truth table. The
// row's characters were validated by read_blif's line loop.
void apply_cover_row(const std::string& in_bits, bool out_one,
                     std::vector<char>& on_set) {
  const int k = static_cast<int>(in_bits.size());
  std::vector<int> dashes;
  std::uint32_t base = 0;
  for (int j = 0; j < k; ++j) {
    if (in_bits[j] == '1')
      base |= 1u << j;
    else if (in_bits[j] == '-')
      dashes.push_back(j);
  }
  for (std::uint32_t d = 0; d < (1u << dashes.size()); ++d) {
    std::uint32_t m = base;
    for (std::size_t b = 0; b < dashes.size(); ++b)
      if ((d >> b) & 1u) m |= 1u << dashes[b];
    on_set[m] = out_one ? 1 : 0;
  }
}

// Constructs are built after the line loop (nets may be used before they
// are declared), so each keeps the input line it came from: every error
// raised while building it names that line.
struct PendingGate {
  int line = 0;  // of the .names directive
  std::vector<std::string> ins;
  std::string out;
  std::vector<std::pair<std::string, bool>> cover;  // (input bits, out value)
};

struct PendingSubckt {
  int line = 0;
  std::string model;
  std::vector<std::pair<std::string, std::string>> binds;  // (formal, actual)
};

struct PendingLatch {
  int line = 0;
  std::string d, q;
};

}  // namespace

Netlist read_blif(std::istream& is, const BlifLibrary& library) {
  Netlist n;
  bool saw_model = false;
  bool done = false;
  std::vector<std::pair<std::string, int>> input_names;   // (name, line)
  std::vector<std::pair<std::string, int>> output_names;  // (name, line)
  std::vector<PendingLatch> latches;
  std::vector<PendingGate> pending;
  std::vector<PendingSubckt> subckts;

  // Read logical lines (backslash continuation), strip comments.
  std::string line, logical;
  int line_no = 0;
  while (!done && std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (!line.empty() && line.back() == '\\') {
      logical += line.substr(0, line.size() - 1) + " ";
      continue;
    }
    logical += line;
    const auto tok = split_ws(logical);
    logical.clear();
    if (tok.empty()) continue;

    if (tok[0] == ".model") {
      HLP_REQUIRE(tok.size() == 2, "line " << line_no << ": .model <name>");
      HLP_REQUIRE(!saw_model, "line " << line_no << ": multiple .model");
      n.set_name(tok[1]);
      saw_model = true;
    } else if (tok[0] == ".inputs") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        input_names.emplace_back(tok[i], line_no);
    } else if (tok[0] == ".outputs") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        output_names.emplace_back(tok[i], line_no);
    } else if (tok[0] == ".latch") {
      HLP_REQUIRE(tok.size() >= 3, "line " << line_no << ": .latch <d> <q> ...");
      latches.push_back({line_no, tok[1], tok[2]});
    } else if (tok[0] == ".names") {
      HLP_REQUIRE(tok.size() >= 2, "line " << line_no << ": .names needs a net");
      HLP_REQUIRE(tok.size() - 2 <= static_cast<std::size_t>(kMaxTtInputs),
                  "line " << line_no << ": .names with " << tok.size() - 2
                          << " inputs exceeds " << kMaxTtInputs);
      PendingGate g;
      g.line = line_no;
      g.out = tok.back();
      g.ins.assign(tok.begin() + 1, tok.end() - 1);
      pending.push_back(std::move(g));
    } else if (tok[0] == ".subckt") {
      HLP_REQUIRE(tok.size() >= 2, "line " << line_no << ": .subckt <model> ...");
      HLP_REQUIRE(library.contains(tok[1]), "line " << line_no << ": model '"
                                                    << tok[1]
                                                    << "' not in library");
      PendingSubckt sub{line_no, tok[1], {}};
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        HLP_REQUIRE(eq != std::string::npos,
                    "line " << line_no << ": bad binding '" << tok[i] << "'");
        sub.binds.emplace_back(tok[i].substr(0, eq), tok[i].substr(eq + 1));
      }
      subckts.push_back(std::move(sub));
    } else if (tok[0] == ".search") {
      // Search paths are satisfied by the pre-registered library; the file
      // name stem must match a registered model (checked at .subckt time).
    } else if (tok[0] == ".end") {
      done = true;
    } else if (tok[0][0] == '.') {
      HLP_REQUIRE(false, "line " << line_no << ": unsupported directive '"
                                 << tok[0] << "'");
    } else {
      // Cover row belonging to the most recent .names.
      HLP_REQUIRE(!pending.empty(), "line " << line_no << ": cover row before .names");
      auto& g = pending.back();
      if (g.ins.empty()) {
        HLP_REQUIRE(tok.size() == 1 && (tok[0] == "0" || tok[0] == "1"),
                    "line " << line_no << ": constant cover must be 0 or 1");
        g.cover.emplace_back("", tok[0] == "1");
      } else {
        HLP_REQUIRE(tok.size() == 2 && tok[0].size() == g.ins.size(),
                    "line " << line_no << ": cover arity mismatch");
        const auto bad = tok[0].find_first_not_of("01-");
        HLP_REQUIRE(bad == std::string::npos,
                    "line " << line_no << ": bad cover character '"
                            << tok[0][bad] << "'");
        HLP_REQUIRE(tok[1] == "0" || tok[1] == "1",
                    "line " << line_no << ": cover output must be 0 or 1");
        g.cover.emplace_back(tok[0], tok[1] == "1");
      }
      HLP_REQUIRE(g.cover.front().second == g.cover.back().second,
                  "line " << line_no
                          << ": mixed-phase covers are not supported");
    }
  }
  HLP_REQUIRE(saw_model, "missing .model");

  // Create nets: inputs first, then everything referenced.
  for (const auto& [in, line] : input_names) {
    HLP_REQUIRE(n.find_net(in) == kNoNet,
                "line " << line << ": input '" << in << "' declared twice");
    n.add_input(in);
  }
  auto net_of = [&](const std::string& name) {
    const NetId existing = n.find_net(name);
    return existing != kNoNet ? existing : n.add_net(name);
  };
  // The net `name` as the output of a new driver declared on `line`: a net
  // has exactly one driver (an input, a latch or a gate).
  auto undriven_net = [&](const std::string& name, int line) {
    const NetId net = net_of(name);
    HLP_REQUIRE(!n.is_comb_source(net) && n.driver_gate(net) < 0,
                "line " << line << ": net '" << name << "' already driven");
    return net;
  };

  for (const auto& l : latches) {
    const NetId q = undriven_net(l.q, l.line);
    n.add_latch(q, net_of(l.d));
  }

  for (const auto& g : pending) {
    // Build the on-set. BLIF semantics: rows with output 1 form the on-set;
    // a cover written in the 0-phase complements (the line loop rejected
    // covers that mix both phases).
    const bool zero_phase = !g.cover.empty() && !g.cover.front().second;
    std::vector<char> on_set(1u << g.ins.size(), zero_phase ? 1 : 0);
    for (const auto& [bits, one] : g.cover) {
      if (g.ins.empty()) {
        on_set[0] = one ? 1 : 0;
      } else {
        apply_cover_row(bits, !zero_phase, on_set);
      }
    }
    if (zero_phase) {
      // Rows listed were the off-set; on_set currently holds 1 everywhere
      // except listed rows (apply_cover_row wrote 0 there). Nothing to do.
    }
    std::uint64_t bits = 0;
    for (std::size_t m = 0; m < on_set.size(); ++m)
      if (on_set[m]) bits |= 1ull << m;
    std::vector<NetId> ins;
    ins.reserve(g.ins.size());
    for (const auto& s : g.ins) ins.push_back(net_of(s));
    n.add_gate(undriven_net(g.out, g.line), std::move(ins),
               TruthTable(static_cast<int>(g.ins.size()), bits));
  }

  int inst = 0;
  for (const auto& sub : subckts) {
    const Netlist& model = library.get(sub.model);
    std::unordered_map<std::string, std::string> formal_to_actual;
    for (const auto& [f, a] : sub.binds) formal_to_actual[f] = a;
    std::vector<NetId> actuals;
    actuals.reserve(model.inputs().size());
    for (NetId mi : model.inputs()) {
      auto it = formal_to_actual.find(model.net_name(mi));
      HLP_REQUIRE(it != formal_to_actual.end(),
                  "line " << sub.line << ": subckt " << sub.model
                          << ": input '" << model.net_name(mi)
                          << "' unbound");
      actuals.push_back(net_of(it->second));
    }
    const std::string prefix =
        sub.model + "_i" + std::to_string(inst++) + "_";
    const auto outs = n.instantiate(model, actuals, prefix);
    // Connect bound outputs: formal PO name -> actual net via a buffer.
    for (std::size_t oi = 0; oi < model.outputs().size(); ++oi) {
      const std::string& formal = model.net_name(model.outputs()[oi]);
      auto it = formal_to_actual.find(formal);
      if (it == formal_to_actual.end()) continue;
      n.add_gate(undriven_net(it->second, sub.line), {outs[oi]},
                 TruthTable::buf());
    }
  }

  for (const auto& [out, line] : output_names) {
    const NetId o = n.find_net(out);
    HLP_REQUIRE(o != kNoNet && (n.is_comb_source(o) || n.driver_gate(o) >= 0),
                "line " << line << ": output '" << out << "' never driven");
    n.add_output(o);
  }
  n.validate();
  return n;
}

Netlist blif_from_string(const std::string& text, const BlifLibrary& library) {
  std::istringstream iss(text);
  return read_blif(iss, library);
}

}  // namespace hlp
