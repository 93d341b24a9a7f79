#include "cdfg/cdfg.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace hlp {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
      return "add";
    case OpKind::kMult:
      return "mult";
  }
  return "?";
}

OpKind op_kind_from_name(std::string_view name) {
  for (const OpKind k : {OpKind::kAdd, OpKind::kMult})
    if (name == to_string(k)) return k;
  throw Error("unknown op kind '" + std::string(name) + "'");
}

int Cdfg::add_input(std::string name) {
  HLP_REQUIRE(!name.empty(), "input name must be non-empty");
  inputs_.push_back(std::move(name));
  return num_inputs() - 1;
}

int Cdfg::add_op(std::string name, OpKind kind, ValueRef lhs, ValueRef rhs) {
  HLP_REQUIRE(!name.empty(), "op name must be non-empty");
  check_ref(lhs);
  check_ref(rhs);
  ops_.push_back({std::move(name), kind, lhs, rhs});
  return num_ops() - 1;
}

int Cdfg::add_output(std::string name, ValueRef value) {
  HLP_REQUIRE(!name.empty(), "output name must be non-empty");
  check_ref(value);
  outputs_.push_back({std::move(name), value});
  return num_outputs() - 1;
}

const std::string& Cdfg::input_name(int i) const {
  HLP_CHECK(i >= 0 && i < num_inputs(), "input index " << i << " out of range");
  return inputs_[i];
}

const Operation& Cdfg::op(int i) const {
  HLP_CHECK(i >= 0 && i < num_ops(), "op index " << i << " out of range");
  return ops_[i];
}

const Output& Cdfg::output(int i) const {
  HLP_CHECK(i >= 0 && i < num_outputs(), "output index " << i << " out of range");
  return outputs_[i];
}

int Cdfg::num_ops_of_kind(OpKind k) const {
  return static_cast<int>(
      std::count_if(ops_.begin(), ops_.end(),
                    [k](const Operation& o) { return o.kind == k; }));
}

std::vector<std::vector<int>> Cdfg::op_consumers() const {
  std::vector<std::vector<int>> inputs_consumers(inputs_.size());
  std::vector<std::vector<int>> op_value_consumers(ops_.size());
  auto record = [&](ValueRef v, int op_idx) {
    if (v.is_input())
      inputs_consumers[v.index].push_back(op_idx);
    else
      op_value_consumers[v.index].push_back(op_idx);
  };
  for (int i = 0; i < num_ops(); ++i) {
    record(ops_[i].lhs, i);
    record(ops_[i].rhs, i);
  }
  // Flatten: inputs first, then op values (same ordering as value ids used
  // by lifetimes).
  std::vector<std::vector<int>> out;
  out.reserve(inputs_.size() + ops_.size());
  for (auto& v : inputs_consumers) out.push_back(std::move(v));
  for (auto& v : op_value_consumers) out.push_back(std::move(v));
  return out;
}

std::vector<ValueRef> Cdfg::dead_values() const {
  std::vector<char> used_in(inputs_.size(), 0), used_op(ops_.size(), 0);
  auto mark = [&](ValueRef v) {
    if (v.is_input())
      used_in[v.index] = 1;
    else
      used_op[v.index] = 1;
  };
  for (const auto& o : ops_) {
    mark(o.lhs);
    mark(o.rhs);
  }
  for (const auto& o : outputs_) mark(o.value);
  std::vector<ValueRef> dead;
  for (int i = 0; i < num_inputs(); ++i)
    if (!used_in[i]) dead.push_back(ValueRef::input(i));
  for (int i = 0; i < num_ops(); ++i)
    if (!used_op[i]) dead.push_back(ValueRef::op(i));
  return dead;
}

std::vector<int> Cdfg::op_depths() const {
  std::vector<int> d(ops_.size(), 1);
  for (int i = 0; i < num_ops(); ++i) {
    auto dep = [&](ValueRef v) { return v.is_op() ? d[v.index] : 0; };
    d[i] = 1 + std::max(dep(ops_[i].lhs), dep(ops_[i].rhs));
  }
  return d;
}

int Cdfg::depth() const {
  const auto d = op_depths();
  return d.empty() ? 0 : *std::max_element(d.begin(), d.end());
}

void Cdfg::validate() const {
  std::unordered_set<std::string> names;
  for (const auto& n : inputs_)
    HLP_CHECK(names.insert(n).second, "duplicate name '" << n << "'");
  for (const auto& o : ops_)
    HLP_CHECK(names.insert(o.name).second, "duplicate name '" << o.name << "'");
  for (const auto& o : outputs_)
    HLP_CHECK(names.insert(o.name).second, "duplicate name '" << o.name << "'");
  for (int i = 0; i < num_ops(); ++i) {
    const auto& o = ops_[i];
    auto ok = [&](ValueRef v) {
      return v.is_input() ? v.index >= 0 && v.index < num_inputs()
                          : v.index >= 0 && v.index < i;
    };
    HLP_CHECK(ok(o.lhs) && ok(o.rhs),
              "op '" << o.name << "' references an undefined value");
  }
  for (const auto& o : outputs_) check_ref(o.value);
  const auto dead = dead_values();
  HLP_CHECK(dead.empty(), "CDFG contains " << dead.size()
                                           << " dead value(s), first: "
                                           << value_name(dead.front()));
}

std::string Cdfg::value_name(ValueRef v) const {
  check_ref(v);
  return v.is_input() ? inputs_[v.index] : ops_[v.index].name;
}

void Cdfg::check_ref(ValueRef v) const {
  if (v.is_input()) {
    HLP_CHECK(v.index >= 0 && v.index < num_inputs(),
              "dangling input ref " << v.index);
  } else {
    HLP_CHECK(v.index >= 0 && v.index < num_ops(),
              "dangling op ref " << v.index);
  }
}

}  // namespace hlp
