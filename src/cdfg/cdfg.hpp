// Control/data-flow graph (CDFG) intermediate representation.
//
// The binding problem's input (Section 3 of the paper) is a *scheduled* CDFG
// over a library of single-cycle resources. Matching the paper's benchmarks,
// every operation is a two-input addition/subtraction or multiplication and
// produces exactly one value. Values are produced either by a primary input
// or by an operation; primary outputs name the values observable outside.
//
// The graph is acyclic by construction: an operation may only reference
// values that already exist, so creation order is a topological order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlp {

/// Operation type. The paper's benchmarks contain only add/sub (bound to
/// adder FUs) and multiply (bound to multiplier FUs).
enum class OpKind : std::uint8_t { kAdd, kMult };

const char* to_string(OpKind k);
/// The kind whose to_string() is `name`; throws hlp::Error otherwise.
OpKind op_kind_from_name(std::string_view name);

/// Number of distinct OpKind values (for per-type arrays).
inline constexpr int kNumOpKinds = 2;
inline int op_kind_index(OpKind k) { return static_cast<int>(k); }

/// Reference to a value: either the output of a primary input or of an
/// operation.
struct ValueRef {
  enum class Kind : std::uint8_t { kInput, kOp };
  Kind kind = Kind::kInput;
  int index = -1;

  static ValueRef input(int i) { return {Kind::kInput, i}; }
  static ValueRef op(int i) { return {Kind::kOp, i}; }
  bool is_input() const { return kind == Kind::kInput; }
  bool is_op() const { return kind == Kind::kOp; }
  friend bool operator==(const ValueRef&, const ValueRef&) = default;
};

/// Two-input, single-output operation.
struct Operation {
  std::string name;
  OpKind kind = OpKind::kAdd;
  ValueRef lhs;
  ValueRef rhs;
};

/// Primary output: a named reference to a value.
struct Output {
  std::string name;
  ValueRef value;
};

/// Data-flow graph. See file comment for invariants.
class Cdfg {
 public:
  explicit Cdfg(std::string name = "cdfg") : name_(std::move(name)) {}

  /// Add a primary input; returns its index.
  int add_input(std::string name);

  /// Add an operation over existing values; returns its index.
  int add_op(std::string name, OpKind kind, ValueRef lhs, ValueRef rhs);

  /// Mark a value as a primary output.
  int add_output(std::string name, ValueRef value);

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_ops() const { return static_cast<int>(ops_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  const std::string& input_name(int i) const;
  const Operation& op(int i) const;
  const Output& output(int i) const;
  const std::vector<Operation>& ops() const { return ops_; }
  const std::vector<Output>& outputs() const { return outputs_; }

  /// Ops of a given kind.
  int num_ops_of_kind(OpKind k) const;

  /// Dataflow edges: two per operation plus one per primary output.
  int num_edges() const { return 2 * num_ops() + num_outputs(); }

  /// Consumers of each value: op indices that read it (an op reading the
  /// same value twice appears twice).
  std::vector<std::vector<int>> op_consumers() const;

  /// Values with no op consumer and no output reference (dead code).
  std::vector<ValueRef> dead_values() const;

  /// Longest path length in ops (a single op has depth 1; inputs depth 0).
  int depth() const;
  /// Depth of each operation (1-based; operands of depth d feed depth d+1).
  std::vector<int> op_depths() const;

  /// Throws hlp::Error if any structural invariant is broken (dangling
  /// refs, duplicate names, dead values).
  void validate() const;

  /// Human-readable name for any value.
  std::string value_name(ValueRef v) const;

 private:
  void check_ref(ValueRef v) const;

  std::string name_;
  std::vector<std::string> inputs_;
  std::vector<Operation> ops_;
  std::vector<Output> outputs_;
};

}  // namespace hlp
