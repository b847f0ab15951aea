#include "query/eval_program.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/strings.h"

namespace aorta::query {

using aorta::util::Result;
using aorta::util::Status;
using device::Value;

namespace {

// A subtree is compile-time constant when it touches neither columns nor
// functions (functions may be stateful — coverage() reads the registry).
bool is_constant(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kFuncCall:
      return false;
    case Expr::Kind::kBinary:
      return is_constant(*expr.lhs) && is_constant(*expr.rhs);
    case Expr::Kind::kNot:
      return is_constant(*expr.lhs);
  }
  return false;
}

std::size_t node_count(const Expr& expr) {
  std::size_t n = 1;
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumnRef:
      break;
    case Expr::Kind::kFuncCall:
      for (const auto& arg : expr.args) n += node_count(*arg);
      break;
    case Expr::Kind::kBinary:
      n += node_count(*expr.lhs) + node_count(*expr.rhs);
      break;
    case Expr::Kind::kNot:
      n += node_count(*expr.lhs);
      break;
  }
  return n;
}

bool is_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Inline numeric coercion for the VM's fast paths. Mirrors
// device::value_as_double (bool/int/double) but stays in this TU so the
// interpreter loop never pays a call for the overwhelmingly common
// all-numeric operand case. The slow paths below still route through
// compare_values / arithmetic_values, which define the semantics.
inline bool fast_num(const Value& v, double* out) {
  if (const double* d = std::get_if<double>(&v)) {
    *out = *d;
    return true;
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    *out = static_cast<double>(*i);
    return true;
  }
  if (const bool* b = std::get_if<bool>(&v)) {
    *out = *b ? 1.0 : 0.0;
    return true;
  }
  return false;
}

inline bool fast_is_null(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

// Truthiness with the bool/double cases inlined; everything else (strings,
// locations) defers to device::value_truthy.
inline bool fast_truthy(const Value& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b;
  if (const double* d = std::get_if<double>(&v)) return *d != 0.0;
  if (fast_is_null(v)) return false;
  return device::value_truthy(v);
}

inline bool fast_compare(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kEq: return a == b;
    case BinaryOp::kNe: return a != b;
    case BinaryOp::kLt: return a < b;
    case BinaryOp::kLe: return a <= b;
    case BinaryOp::kGt: return a > b;
    default: return a >= b;  // kGe; the compiler never emits others here
  }
}

}  // namespace

// Lowers one Expr tree into a program. Collects errors as a Status so the
// recursive emitters can stay void; compile() checks it at the end.
class ProgramBuilder {
 public:
  ProgramBuilder(const std::vector<std::string>& binding_aliases,
                 const std::map<std::string, const comm::Schema*>& schemas,
                 const FunctionRegistry& functions)
      : binding_aliases_(binding_aliases),
        schemas_(schemas),
        functions_(functions) {}

  Result<EvalProgram> build(const Expr& expr) {
    if (binding_aliases_.size() > BindingFrame::kMaxBindings) {
      return Result<EvalProgram>(aorta::util::invalid_argument_error(
          "too many tables for a binding frame"));
    }
    emit(expr);
    if (!status_.is_ok()) return Result<EvalProgram>(status_);
    fuse_compare_triples();
    return EvalProgram::pack(std::move(program_));
  }

 private:
  using OpCode = EvalProgram::OpCode;
  using Instr = EvalProgram::Instr;

  // Peephole pass: rewrite [kLoadQual][kPushConst(numeric)][kCompare]
  // triples into kCmpQualConst and remap short-circuit jump targets.
  void fuse_compare_triples();

  void fail(Status s) {
    if (status_.is_ok()) status_ = std::move(s);
  }

  void push_depth() {
    ++depth_;
    program_.max_stack = std::max(program_.max_stack, depth_);
  }

  std::uint32_t intern_const(Value v) {
    program_.consts.push_back(std::move(v));
    return static_cast<std::uint32_t>(program_.consts.size() - 1);
  }

  std::uint32_t intern_name(const std::string& name) {
    for (std::size_t i = 0; i < program_.names.size(); ++i) {
      if (program_.names[i] == name) return static_cast<std::uint32_t>(i);
    }
    program_.names.push_back(name);
    return static_cast<std::uint32_t>(program_.names.size() - 1);
  }

  void emit_op(OpCode op, std::uint32_t a = 0, std::uint32_t b = 0,
               std::uint32_t c = 0) {
    program_.code.push_back(Instr{op, a, b, c});
  }

  void emit_const(Value v) {
    emit_op(OpCode::kPushConst, intern_const(std::move(v)));
    push_depth();
  }

  // Fold a constant subtree by running the reference evaluator once at
  // compile time (no columns or functions inside, so the empty Env cannot
  // be consulted). A folding that errors is emitted structurally instead:
  // the per-row evaluation must keep reporting that error.
  bool try_fold(const Expr& expr) {
    if (expr.kind == Expr::Kind::kLiteral || !is_constant(expr)) return false;
    Env empty;
    auto v = eval(expr, empty, functions_);
    if (!v.is_ok()) return false;
    program_.folded_nodes += node_count(expr) - 1;
    emit_const(std::move(v).value());
    return true;
  }

  std::int64_t binding_of(const std::string& alias) const {
    for (std::size_t i = 0; i < binding_aliases_.size(); ++i) {
      if (binding_aliases_[i] == alias) return static_cast<std::int64_t>(i);
    }
    return -1;
  }

  void emit_column(const Expr& expr) {
    if (!expr.qualifier.empty()) {
      std::int64_t binding = binding_of(expr.qualifier);
      if (binding < 0) {
        // The tree walker reports this per row, not at compile time, so
        // the program must too (e.g. the rhs of a short-circuited AND
        // must stay silently unevaluated).
        emit_op(OpCode::kLoadUnbound, 0, 0, intern_name(expr.qualifier));
        push_depth();
        return;
      }
      auto it = schemas_.find(expr.qualifier);
      const comm::Schema* schema = it == schemas_.end() ? nullptr : it->second;
      if (schema == nullptr) {
        fail(aorta::util::not_found_error("no schema for alias: " +
                                          expr.qualifier));
        return;
      }
      auto slot = schema->index_of(expr.column);
      if (!slot.has_value()) {
        // A bound tuple serves unknown names as NULL (Tuple::get), so the
        // reference to a column the schema lacks compiles to a NULL load
        // that still reports unbound aliases.
        emit_op(OpCode::kLoadMissing, static_cast<std::uint32_t>(binding), 0,
                intern_name(expr.qualifier));
        push_depth();
        return;
      }
      emit_op(OpCode::kLoadQual, static_cast<std::uint32_t>(binding),
              static_cast<std::uint32_t>(*slot), intern_name(expr.qualifier));
      push_depth();
      return;
    }
    // Unqualified: must resolve to exactly one schema, like the tree
    // walker's search over the bound tuples.
    std::int64_t binding = -1;
    std::size_t slot = 0;
    for (std::size_t i = 0; i < binding_aliases_.size(); ++i) {
      auto it = schemas_.find(binding_aliases_[i]);
      if (it == schemas_.end() || it->second == nullptr) continue;
      auto s = it->second->index_of(expr.column);
      if (!s.has_value()) continue;
      if (binding >= 0) {
        fail(aorta::util::invalid_argument_error("ambiguous column: " +
                                                 expr.column));
        return;
      }
      binding = static_cast<std::int64_t>(i);
      slot = *s;
    }
    if (binding < 0) {
      fail(aorta::util::not_found_error("unknown column: " + expr.column));
      return;
    }
    emit_op(OpCode::kLoadUnqual, static_cast<std::uint32_t>(binding),
            static_cast<std::uint32_t>(slot), intern_name(expr.column));
    push_depth();
  }

  void emit_logic(const Expr& expr) {
    bool is_and = expr.op == BinaryOp::kAnd;
    // Short-circuit folding: a constant, non-erroring lhs either decides
    // the result outright (the tree walker never evaluates rhs, so neither
    // may we — rhs may not even compile) or vanishes entirely.
    if (is_constant(*expr.lhs)) {
      Env empty;
      auto lhs = eval(*expr.lhs, empty, functions_);
      if (lhs.is_ok()) {
        bool l = device::value_truthy(lhs.value());
        program_.folded_nodes += node_count(*expr.lhs);
        if (is_and && !l) {
          program_.folded_nodes += node_count(*expr.rhs);
          emit_const(Value{false});
          return;
        }
        if (!is_and && l) {
          program_.folded_nodes += node_count(*expr.rhs);
          emit_const(Value{true});
          return;
        }
        emit(*expr.rhs);
        emit_op(OpCode::kBoolCast);
        return;
      }
    }
    emit(*expr.lhs);
    std::size_t jump_at = program_.code.size();
    emit_op(is_and ? OpCode::kAndJump : OpCode::kOrJump);
    --depth_;  // fall-through pops the lhs value
    emit(*expr.rhs);
    emit_op(OpCode::kBoolCast);
    program_.code[jump_at].a =
        static_cast<std::uint32_t>(program_.code.size());
  }

  void emit(const Expr& expr) {
    if (!status_.is_ok()) return;
    if (try_fold(expr)) return;
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        emit_const(expr.literal);
        return;
      case Expr::Kind::kColumnRef:
        emit_column(expr);
        return;
      case Expr::Kind::kFuncCall: {
        const ScalarFn* fn = functions_.find(expr.func_name);
        if (fn == nullptr) {
          fail(aorta::util::not_found_error("unknown function: " +
                                            expr.func_name));
          return;
        }
        for (const auto& arg : expr.args) emit(*arg);
        program_.fns.push_back(fn);
        emit_op(OpCode::kCall,
                static_cast<std::uint32_t>(program_.fns.size() - 1),
                static_cast<std::uint32_t>(expr.args.size()));
        depth_ -= expr.args.size();
        push_depth();
        return;
      }
      case Expr::Kind::kBinary:
        if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
          emit_logic(expr);
          return;
        }
        emit(*expr.lhs);
        emit(*expr.rhs);
        emit_op(is_comparison(expr.op) ? OpCode::kCompare : OpCode::kArith,
                static_cast<std::uint32_t>(expr.op));
        --depth_;
        return;
      case Expr::Kind::kNot:
        emit(*expr.lhs);
        emit_op(OpCode::kNot);
        return;
    }
    fail(aorta::util::internal_error("bad expression kind"));
  }

  const std::vector<std::string>& binding_aliases_;
  const std::map<std::string, const comm::Schema*>& schemas_;
  const FunctionRegistry& functions_;
  EvalProgram::Pools program_;
  Status status_;
  std::size_t depth_ = 0;
};

Result<EvalProgram> EvalProgram::compile(
    const Expr& expr, const std::vector<std::string>& binding_aliases,
    const std::map<std::string, const comm::Schema*>& schemas,
    const FunctionRegistry& functions) {
  return ProgramBuilder(binding_aliases, schemas, functions).build(expr);
}

// Rewrites every [kLoadQual][kPushConst(numeric, non-null)][kCompare]
// triple — the shape of virtually every sensory predicate — into one
// kCmpQualConst with the constant pre-coerced to double, then remaps the
// short-circuit jump targets. Jump targets can only point at instruction
// boundaries that follow a kBoolCast (or the program end), never into the
// middle of a triple, so collapsing is safe.
void ProgramBuilder::fuse_compare_triples() {
  const std::vector<Value>& consts = program_.consts;
  std::vector<Instr>& code = program_.code;
  program_.num_consts.assign(consts.size(), 0.0);
  std::vector<bool> numeric(consts.size(), false);
  for (std::size_t i = 0; i < consts.size(); ++i) {
    double d;
    if (fast_num(consts[i], &d)) {
      program_.num_consts[i] = d;
      numeric[i] = true;
    }
  }

  std::vector<Instr> fused;
  fused.reserve(code.size());
  std::vector<std::uint32_t> remap(code.size() + 1, 0);
  for (std::size_t i = 0; i < code.size();) {
    remap[i] = static_cast<std::uint32_t>(fused.size());
    if (i + 2 < code.size() && code[i].op == OpCode::kLoadQual &&
        code[i + 1].op == OpCode::kPushConst &&
        code[i + 2].op == OpCode::kCompare && numeric[code[i + 1].a]) {
      const Instr& load = code[i];
      const Instr& cnst = code[i + 1];
      const Instr& cmp = code[i + 2];
      remap[i + 1] = remap[i + 2] = static_cast<std::uint32_t>(fused.size());
      fused.push_back(Instr{
          OpCode::kCmpQualConst, load.b, cnst.a,
          (load.c << 6) | (load.a << 4) | cmp.a});
      i += 3;
      continue;
    }
    fused.push_back(code[i]);
    ++i;
  }
  remap[code.size()] = static_cast<std::uint32_t>(fused.size());
  for (Instr& in : fused) {
    if (in.op == OpCode::kAndJump || in.op == OpCode::kOrJump) {
      in.a = remap[in.a];
    }
  }
  code = std::move(fused);
}

EvalProgram EvalProgram::pack(Pools&& pools) {
  Header header;
  header.code = static_cast<std::uint32_t>(pools.code.size());
  header.consts = static_cast<std::uint32_t>(pools.consts.size());
  header.fns = static_cast<std::uint32_t>(pools.fns.size());
  header.names = static_cast<std::uint32_t>(pools.names.size());
  header.max_stack = static_cast<std::uint32_t>(pools.max_stack);
  header.folded_nodes = static_cast<std::uint32_t>(pools.folded_nodes);
  std::size_t bytes = sizeof(Header) +
                      header.consts * (sizeof(Value) + sizeof(double)) +
                      header.fns * sizeof(const ScalarFn*) +
                      header.code * sizeof(Instr);
  for (const std::string& n : pools.names) bytes += n.size() + 1;

  EvalProgram program;
  program.block_ = new (::operator new(bytes)) Header(header);
  for (std::uint32_t i = 0; i < header.consts; ++i) {
    new (program.consts() + i) Value(std::move(pools.consts[i]));
  }
  std::copy(pools.num_consts.begin(), pools.num_consts.end(),
            program.num_consts());
  std::copy(pools.fns.begin(), pools.fns.end(), program.fns());
  std::copy(pools.code.begin(), pools.code.end(), program.code());
  char* text = program.name(0);
  for (const std::string& n : pools.names) {
    text = std::copy(n.begin(), n.end(), text);
    *text++ = '\0';
  }
  return program;
}

EvalProgram::EvalProgram(const EvalProgram& other) {
  if (other.block_ == nullptr) return;
  const Header& h = *other.block_;
  const char* end = other.name(h.names);
  const auto* begin = reinterpret_cast<const char*>(other.block_);
  block_ = new (::operator new(static_cast<std::size_t>(end - begin)))
      Header(h);
  // The constants are objects; everything after them is plain bytes.
  for (std::uint32_t i = 0; i < h.consts; ++i) {
    new (consts() + i) Value(other.consts()[i]);
  }
  const auto* pods = reinterpret_cast<const char*>(other.num_consts());
  std::memcpy(num_consts(), pods, static_cast<std::size_t>(end - pods));
}

EvalProgram::~EvalProgram() {
  if (block_ == nullptr) return;
  for (std::uint32_t i = 0; i < block_->consts; ++i) consts()[i].~Value();
  ::operator delete(block_);
}

namespace {

// `c <op> x` is `x <mirror(op)> c`.
BinaryOp mirror_compare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

}  // namespace

std::optional<IndexHint> EvalProgram::index_hint() const {
  if (block_ == nullptr) return std::nullopt;
  const Instr* code = this->code();
  const std::size_t size = block_->code;
  IndexHint hint;
  // The peephole pass's own output is the common case: a sensory
  // predicate like `s.accel_x > 500` compiles to exactly one fused
  // compare, constant already coerced into num_consts().
  if (size == 1 && code[0].op == OpCode::kCmpQualConst) {
    const Instr& in = code[0];
    hint.op = static_cast<BinaryOp>(in.c & 0xf);
    if (hint.op == BinaryOp::kNe) return std::nullopt;
    hint.binding = (in.c >> 4) & 0x3;
    hint.slot = in.a;
    hint.num = num_consts()[in.b];
    return hint;
  }
  // Unfused triples: unqualified column refs (kLoadUnqual is never
  // fused), string constants, and constant-on-the-left compares.
  if (size != 3 || code[2].op != OpCode::kCompare) {
    return std::nullopt;
  }
  BinaryOp op = static_cast<BinaryOp>(code[2].a);
  const Instr* load = nullptr;
  const Instr* cnst = nullptr;
  auto is_load = [](const Instr& in) {
    return in.op == OpCode::kLoadQual || in.op == OpCode::kLoadUnqual;
  };
  if (is_load(code[0]) && code[1].op == OpCode::kPushConst) {
    load = &code[0];
    cnst = &code[1];
  } else if (code[0].op == OpCode::kPushConst && is_load(code[1])) {
    load = &code[1];
    cnst = &code[0];
    op = mirror_compare(op);
  } else {
    return std::nullopt;
  }
  if (op == BinaryOp::kNe) return std::nullopt;
  hint.binding = load->a;
  hint.slot = load->b;
  hint.op = op;
  const Value& c = consts()[cnst->a];
  if (double d; fast_num(c, &d)) {
    hint.num = d;
    return hint;
  }
  if (const std::string* s = std::get_if<std::string>(&c)) {
    // String equality hashes; string ranges stay residual (compare_values
    // orders strings, but the interval structures are numeric).
    if (op != BinaryOp::kEq) return std::nullopt;
    hint.is_string = true;
    hint.str = *s;
    return hint;
  }
  return std::nullopt;  // NULL / location / bool-as-ref constants
}

namespace {

// One VM stack entry. Loads and consts push *references* into the tuple /
// constant pool (no variant copy on the hot path); operator results are
// immediates. Strings and locations only ever live behind kRef — produced
// by the slow paths, which park their owned Value in a side buffer.
// Deliberately trivial: the stack array is left uninitialized, every slot
// is written before it is read.
struct Slot {
  enum class Tag : std::uint8_t { kNull, kBool, kNum, kRef };
  Tag tag;
  union {
    bool b;
    double d;
    const Value* ref;
  };

  void set_null() { tag = Tag::kNull; }
  void set_bool(bool v) { tag = Tag::kBool; b = v; }
  void set_num(double v) { tag = Tag::kNum; d = v; }
  void set_ref(const Value* v) { tag = Tag::kRef; ref = v; }
};

inline bool slot_is_null(const Slot& s) {
  return s.tag == Slot::Tag::kNull ||
         (s.tag == Slot::Tag::kRef && fast_is_null(*s.ref));
}

inline bool slot_num(const Slot& s, double* out) {
  switch (s.tag) {
    case Slot::Tag::kNum: *out = s.d; return true;
    case Slot::Tag::kBool: *out = s.b ? 1.0 : 0.0; return true;
    case Slot::Tag::kRef: return fast_num(*s.ref, out);
    case Slot::Tag::kNull: return false;
  }
  return false;
}

inline bool slot_truthy(const Slot& s) {
  switch (s.tag) {
    case Slot::Tag::kBool: return s.b;
    case Slot::Tag::kNum: return s.d != 0.0;
    case Slot::Tag::kRef: return fast_truthy(*s.ref);
    case Slot::Tag::kNull: return false;
  }
  return false;
}

// Copies a slot out into an owned Value (slow paths, call arguments, the
// final result).
inline Value slot_value(const Slot& s) {
  switch (s.tag) {
    case Slot::Tag::kNull: return Value{};
    case Slot::Tag::kBool: return Value{s.b};
    case Slot::Tag::kNum: return Value{s.d};
    case Slot::Tag::kRef: return *s.ref;
  }
  return Value{};
}

// The error of a column or alias that does not resolve at run time.
Status not_found(const char* what, const char* name) {
  return aorta::util::not_found_error(std::string(what) + name);
}

}  // namespace

// The VM loop. kPredicateMode returns bool (errors -> false, no Status or
// Result ever materialized); value mode returns Result<Value> with the
// tree walker's exact error messages.
template <bool kPredicateMode>
auto EvalProgram::exec(const BindingFrame& frame) const {
  // Fails either mode uniformly; `make_error` is only invoked in value
  // mode, so predicate rows never pay for message construction.
  auto failed = [](auto&& make_error) {
    if constexpr (kPredicateMode) {
      return false;
    } else {
      return Result<Value>(make_error());
    }
  };

  const Value* consts = this->consts();
  const double* num_consts = this->num_consts();
  const Instr* code = this->code();
  const std::size_t n = block_->code;

  constexpr std::size_t kInlineStack = 16;
  Slot inline_stack[kInlineStack];
  std::vector<Slot> heap_stack;
  Slot* stack = inline_stack;
  if (block_->max_stack > kInlineStack) {
    heap_stack.resize(block_->max_stack);
    stack = heap_stack.data();
  }
  // Owned storage for slow-path results (string concat, function
  // returns). Lazily reserved: all-numeric predicates never touch it. The
  // one-time reserve bounds it (at most one park per instruction, no
  // backward jumps), so parked references stay stable.
  std::vector<Value> owned;
  auto park = [&](std::size_t slot, Value v) {
    if (owned.capacity() == 0) owned.reserve(n);
    owned.push_back(std::move(v));
    stack[slot].set_ref(&owned.back());
  };

  std::size_t sp = 0;
  std::size_t pc = 0;
  while (pc < n) {
    const Instr& in = code[pc];
    switch (in.op) {
      case OpCode::kCmpQualConst: {
        // The fused fast lane: load a qualified column, compare against a
        // pre-coerced numeric constant, push the verdict.
        const comm::Tuple* t = frame.tuples[(in.c >> 4) & 0x3];
        if (t == nullptr) {
          return failed([&] {
            return not_found("unbound table alias: ", name(in.c >> 6));
          });
        }
        const Value& v = t->at(in.a);
        double d;
        if (const double* pd = std::get_if<double>(&v)) {
          d = *pd;
        } else if (fast_is_null(v)) {
          stack[sp++].set_bool(false);  // NULL cmp non-NULL const
          break;
        } else if (!fast_num(v, &d)) {
          // Non-numeric column value (string id, location): shared slow
          // path against the original constant.
          auto r = compare_values(static_cast<BinaryOp>(in.c & 0xf), v,
                                  consts[in.b]);
          if (!r.is_ok()) {
            return failed([&] { return r.status(); });
          }
          park(sp, std::move(r).value());
          ++sp;
          break;
        }
        stack[sp++].set_bool(fast_compare(static_cast<BinaryOp>(in.c & 0xf),
                                          d, num_consts[in.b]));
        break;
      }
      case OpCode::kPushConst:
        stack[sp++].set_ref(&consts[in.a]);
        break;
      case OpCode::kLoadQual: {
        const comm::Tuple* t = frame.tuples[in.a];
        if (t == nullptr) {
          return failed([&] {
            return not_found("unbound table alias: ", name(in.c));
          });
        }
        stack[sp++].set_ref(&t->at(in.b));
        break;
      }
      case OpCode::kLoadUnqual: {
        const comm::Tuple* t = frame.tuples[in.a];
        if (t == nullptr) {
          return failed([&] {
            return not_found("unknown column: ", name(in.c));
          });
        }
        stack[sp++].set_ref(&t->at(in.b));
        break;
      }
      case OpCode::kLoadMissing: {
        if (frame.tuples[in.a] == nullptr) {
          return failed([&] {
            return not_found("unbound table alias: ", name(in.c));
          });
        }
        stack[sp++].set_null();
        break;
      }
      case OpCode::kLoadUnbound:
        return failed([&] {
          return not_found("unbound table alias: ", name(in.c));
        });
      case OpCode::kCall: {
        std::size_t argc = in.b;
        std::vector<Value> args;
        args.reserve(argc);
        for (std::size_t i = sp - argc; i < sp; ++i) {
          args.push_back(slot_value(stack[i]));
        }
        sp -= argc;
        auto r = (*fns()[in.a])(args);
        if (!r.is_ok()) {
          return failed([&] { return r.status(); });
        }
        park(sp, std::move(r).value());
        ++sp;
        break;
      }
      case OpCode::kCompare: {
        const Slot& a = stack[sp - 2];
        const Slot& b = stack[sp - 1];
        // Fast paths (NULL -> false, all-numeric inline) cover the sensory
        // predicates the executor runs per epoch; strings/locations and
        // type errors take the shared slow path.
        double da, db;
        if (slot_is_null(a) || slot_is_null(b)) {
          --sp;
          stack[sp - 1].set_bool(false);
        } else if (slot_num(a, &da) && slot_num(b, &db)) {
          --sp;
          stack[sp - 1].set_bool(fast_compare(static_cast<BinaryOp>(in.a),
                                              da, db));
        } else {
          auto r = compare_values(static_cast<BinaryOp>(in.a), slot_value(a),
                                  slot_value(b));
          if (!r.is_ok()) {
            return failed([&] { return r.status(); });
          }
          --sp;
          park(sp - 1, std::move(r).value());
        }
        break;
      }
      case OpCode::kArith: {
        const Slot& a = stack[sp - 2];
        const Slot& b = stack[sp - 1];
        double da, db;
        if (slot_is_null(a) || slot_is_null(b)) {
          --sp;
          stack[sp - 1].set_null();
        } else if (slot_num(a, &da) && slot_num(b, &db)) {
          --sp;
          switch (static_cast<BinaryOp>(in.a)) {
            case BinaryOp::kAdd: stack[sp - 1].set_num(da + db); break;
            case BinaryOp::kSub: stack[sp - 1].set_num(da - db); break;
            case BinaryOp::kMul: stack[sp - 1].set_num(da * db); break;
            default:  // kDiv; NULL on division by zero
              if (db == 0.0) {
                stack[sp - 1].set_null();
              } else {
                stack[sp - 1].set_num(da / db);
              }
              break;
          }
        } else {
          auto r = arithmetic_values(static_cast<BinaryOp>(in.a),
                                     slot_value(a), slot_value(b));
          if (!r.is_ok()) {
            return failed([&] { return r.status(); });
          }
          --sp;
          park(sp - 1, std::move(r).value());
        }
        break;
      }
      case OpCode::kNot:
        stack[sp - 1].set_bool(!slot_truthy(stack[sp - 1]));
        break;
      case OpCode::kBoolCast:
        stack[sp - 1].set_bool(slot_truthy(stack[sp - 1]));
        break;
      case OpCode::kAndJump:
        if (!slot_truthy(stack[sp - 1])) {
          stack[sp - 1].set_bool(false);
          pc = in.a;
          continue;
        }
        --sp;
        break;
      case OpCode::kOrJump:
        if (slot_truthy(stack[sp - 1])) {
          stack[sp - 1].set_bool(true);
          pc = in.a;
          continue;
        }
        --sp;
        break;
    }
    ++pc;
  }
  if constexpr (kPredicateMode) {
    return slot_truthy(stack[sp - 1]);
  } else {
    return Result<Value>(slot_value(stack[sp - 1]));
  }
}

Result<Value> EvalProgram::run(const BindingFrame& frame) const {
  return exec</*kPredicateMode=*/false>(frame);
}

bool EvalProgram::run_predicate(const BindingFrame& frame) const {
  return exec</*kPredicateMode=*/true>(frame);
}

std::string EvalProgram::disassemble() const {
  std::string out;
  for (std::size_t i = 0; i < instruction_count(); ++i) {
    const Instr& in = code()[i];
    out += aorta::util::str_format("%3zu: ", i);
    switch (in.op) {
      case OpCode::kPushConst:
        out += "push " + device::value_to_string(consts()[in.a]);
        break;
      case OpCode::kLoadQual:
        out += aorta::util::str_format("load %s[%u] slot %u",
                                       name(in.c), in.a, in.b);
        break;
      case OpCode::kLoadUnqual:
        out += aorta::util::str_format("load_unqual %s bind %u slot %u",
                                       name(in.c), in.a, in.b);
        break;
      case OpCode::kLoadMissing:
        out += aorta::util::str_format("load_missing bind %u (NULL)", in.a);
        break;
      case OpCode::kLoadUnbound:
        out += std::string("load_unbound ") + name(in.c) + " (error)";
        break;
      case OpCode::kCmpQualConst:
        out += aorta::util::str_format(
            "cmp_fused %s[%u] slot %u %s %s", name(in.c >> 6),
            (in.c >> 4) & 0x3, in.a,
            std::string(binary_op_name(static_cast<BinaryOp>(in.c & 0xf)))
                .c_str(),
            device::value_to_string(consts()[in.b]).c_str());
        break;
      case OpCode::kCall:
        out += aorta::util::str_format("call fn#%u argc %u", in.a, in.b);
        break;
      case OpCode::kCompare:
        out += "cmp ";
        out += binary_op_name(static_cast<BinaryOp>(in.a));
        break;
      case OpCode::kArith:
        out += "arith ";
        out += binary_op_name(static_cast<BinaryOp>(in.a));
        break;
      case OpCode::kNot:
        out += "not";
        break;
      case OpCode::kBoolCast:
        out += "bool";
        break;
      case OpCode::kAndJump:
        out += aorta::util::str_format("and_jump -> %u", in.a);
        break;
      case OpCode::kOrJump:
        out += aorta::util::str_format("or_jump -> %u", in.a);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace aorta::query
