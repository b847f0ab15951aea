// Compiled expression evaluation: flat postfix programs over a slot-
// resolved binding frame.
//
// The tree-walking evaluator in expr_eval.h resolves every column
// reference per row by string: an alias lookup in the Env plus a
// Schema::index_of probe. With thousands of co-located AQs evaluating
// every epoch (src/server + comm::ScanBroker), that re-interpretation
// dominates per-epoch CPU. An EvalProgram is produced once — at AQ
// registration or SELECT compile — by lowering the Expr tree into postfix
// instructions whose column refs are pre-resolved to (binding index,
// field slot) pairs against the statement's FROM-clause schemas, with
// constant subtrees folded, AND/OR lowered to short-circuit jumps, and
// scalar-function pointers pre-bound. Per row, evaluation is array
// indexing over a small value stack and a flat Tuple-pointer frame.
//
// Semantics contract: a program returns exactly what expr_eval's eval()
// returns for the same expression over equivalently-bound tuples —
// including three-valued NULL behaviour, short-circuiting past erroring
// operands, and error statuses (byte-identical messages). Programs are the
// only runtime evaluator: compile() (query/compile.h) rejects a statement
// whose expressions do not lower. The tree walker stays as the reference
// implementation — constant folding runs it at compile time, and
// tests/eval_program_test.cc uses it as the differential oracle.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/expr_eval.h"

namespace aorta::query {

// The per-row evaluation context: one tuple pointer per FROM-clause alias,
// in the statement's binding order (CompiledQuery::binding_aliases).
// Replaces the Env's alias->tuple map on hot paths. Slots may be null for
// aliases the program does not touch (e.g. the candidate slot while event
// predicates run).
struct BindingFrame {
  static constexpr std::size_t kMaxBindings = 4;

  std::array<const comm::Tuple*, kMaxBindings> tuples{};
  std::size_t size = 0;

  void set(std::size_t i, const comm::Tuple* tuple) { tuples[i] = tuple; }
  const comm::Tuple* operator[](std::size_t i) const { return tuples[i]; }
};

// A single indexable comparison recovered from a compiled predicate
// program: `column <op> constant`, normalized so the column is on the
// left (a constant-on-the-left compare reports the mirrored operator).
// Produced by EvalProgram::index_hint() for the predicate-index compile
// pass (compile.cc / predicate_index.h): only whole-program shapes are
// reported, so a hint is exactly equivalent to the predicate it came
// from. kNe never yields a hint (it excludes almost nothing), and only
// numeric constants (bool/int/double) and string equality qualify.
struct IndexHint {
  std::uint32_t binding = 0;  // frame slot of the column's alias
  std::uint32_t slot = 0;     // field slot in that alias's schema
  BinaryOp op = BinaryOp::kEq;  // kEq / kLt / kLe / kGt / kGe
  bool is_string = false;
  double num = 0.0;  // constant, pre-coerced (valid when !is_string)
  std::string str;   // constant (valid when is_string)
};

class EvalProgram {
 public:
  // One postfix instruction. Operands index the program's pools; `a` is
  // also the jump target for the short-circuit opcodes.
  enum class OpCode : std::uint8_t {
    kPushConst,   // push consts[a]
    kLoadQual,    // push frame[a]->at(b); unbound alias names[c] is an error
    kLoadUnqual,  // like kLoadQual, but an unbound slot reports "unknown
                  // column: names[c]" (the unqualified-resolution error)
    kLoadMissing, // qualified ref to a column absent from the schema:
                  // error if frame[a] is unbound, NULL otherwise
    kLoadUnbound, // qualified ref to an alias outside the binding layout:
                  // always "unbound table alias: names[c]", like the
                  // tree walker's per-row resolution failure
    kCall,        // pop b args, push fns[a](args) (pre-bound ScalarFn)
    kCompare,     // pop two, push compare_values(BinaryOp{a}, ...)
    kArith,       // pop two, push arithmetic_values(BinaryOp{a}, ...)
    kNot,         // top = !truthy(top)
    kAndJump,     // if !truthy(top): top = false, jump a; else pop
    kOrJump,      // if truthy(top): top = true, jump a; else pop
    kBoolCast,    // top = truthy(top)  (AND/OR produce booleans)
    kCmpQualConst,  // fused [kLoadQual][kPushConst][kCompare] over a
                    // numeric constant: a = field slot, b = const index
                    // (num_consts[b] pre-coerced), c packs
                    // (name << 6) | (binding << 4) | compare op
  };

  struct Instr {
    OpCode op;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
  };

  // An empty program (no instructions, no storage): the placeholder for
  // an expression that is never evaluated, e.g. COUNT(*)'s argument.
  EvalProgram() = default;
  EvalProgram(const EvalProgram& other);
  EvalProgram(EvalProgram&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  EvalProgram& operator=(EvalProgram other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~EvalProgram();

  // Lower `expr` against the statement's binding layout. `binding_aliases`
  // fixes the frame slot of each alias; `schemas` (alias -> schema)
  // resolves columns; `functions` pre-binds scalar-function pointers,
  // which must outlive the program. Fails (compile() rejects the
  // statement with this error) on: unknown/ambiguous unqualified columns,
  // unknown functions (aggregate names included: they are not scalar
  // functions), or more than kMaxBindings aliases.
  static aorta::util::Result<EvalProgram> compile(
      const Expr& expr, const std::vector<std::string>& binding_aliases,
      const std::map<std::string, const comm::Schema*>& schemas,
      const FunctionRegistry& functions);

  // Evaluate over one frame. Mirrors eval() from expr_eval.h exactly.
  aorta::util::Result<device::Value> run(const BindingFrame& frame) const;

  // Predicate form: errors and non-truthy values are false, like
  // eval_predicate().
  bool run_predicate(const BindingFrame& frame) const;

  std::size_t instruction_count() const { return block_ ? block_->code : 0; }
  std::size_t folded_nodes() const {
    return block_ ? block_->folded_nodes : 0;
  }

  // One instruction per line, for EXPLAIN-style debugging and tests.
  std::string disassemble() const;

  // The indexable-comparison shape of this program, if the WHOLE program
  // is one `column <op> constant` compare (fused kCmpQualConst, or the
  // unfused load/const/compare triple in either operand order). Nullopt
  // for anything else — such predicates stay on the index's residual
  // list. The peephole pass already proved the fused constants numeric,
  // which is what makes the hint's candidate set prune-safe: a
  // non-coercible column value makes the comparison false (error or NULL
  // semantics) under compare_values, exactly matching an index miss.
  std::optional<IndexHint> index_hint() const;

 private:
  // The program lives in one heap block: this header, then its pools —
  // the constants, their numeric coercions (valid where a compare was
  // fused), the pre-bound functions, the instructions, and the column and
  // alias names that error messages and disassemble() print, each
  // NUL-terminated. A string constant longer than the small-string buffer
  // keeps its characters in a block of its own.
  struct Header {
    std::uint32_t code = 0;    // instructions
    std::uint32_t consts = 0;  // constants (and numeric coercions)
    std::uint32_t fns = 0;     // pre-bound functions
    std::uint32_t names = 0;   // names
    std::uint32_t max_stack = 1;
    std::uint32_t folded_nodes = 0;
  };
  static_assert(sizeof(Header) % alignof(device::Value) == 0,
                "the constants start right after the header");
  // The parts a program is packed from (ProgramBuilder's output).
  struct Pools {
    std::vector<Instr> code;
    std::vector<device::Value> consts;
    std::vector<double> num_consts;
    std::vector<const ScalarFn*> fns;
    std::vector<std::string> names;
    std::size_t max_stack = 1;
    std::size_t folded_nodes = 0;
  };
  static EvalProgram pack(Pools&& pools);

  // The pools inside the block (written only while pack() and the copy
  // constructor fill them).
  device::Value* consts() const {
    return reinterpret_cast<device::Value*>(block_ + 1);
  }
  double* num_consts() const {
    return reinterpret_cast<double*>(consts() + block_->consts);
  }
  const ScalarFn** fns() const {
    return reinterpret_cast<const ScalarFn**>(num_consts() + block_->consts);
  }
  Instr* code() const {
    return reinterpret_cast<Instr*>(fns() + block_->fns);
  }
  // The i-th name (only error paths and disassemble() read one); the
  // block ends at name(names).
  char* name(std::uint32_t i) const {
    char* p = reinterpret_cast<char*>(code() + block_->code);
    while (i-- > 0) p += std::strlen(p) + 1;
    return p;
  }

  // Shared VM loop. In predicate mode it returns the verdict directly and
  // swallows errors as false without materializing a Status or Result —
  // that fixed per-row cost is most of what separates a ~100ns and a
  // ~30ns evaluation at executor scale.
  template <bool kPredicateMode>
  auto exec(const BindingFrame& frame) const;

  Header* block_ = nullptr;

  friend class ProgramBuilder;
};

}  // namespace aorta::query
