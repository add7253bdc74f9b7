#include "lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace swaplint {
namespace {

const std::set<std::string, std::less<>> kStmtSkipLead = {
    "if",     "for",   "while", "switch", "return", "co_return",
    "co_await", "co_yield", "case", "do", "else", "goto", "delete", "new",
};

const std::set<std::string, std::less<>> kAcquireMethods = {
    "Acquire", "AcquireShared", "AcquireExclusive"};

// Members that hold crashable swap state: mutating one after a suspension
// point without a re-check is the PR 8 bug shape.
const std::set<std::string, std::less<>> kCrashableMembers = {
    "snapshot", "has_snapshot"};

// Calls that count as reading crashable state; swaplint-recheck(<fn>)
// annotations extend this set tree-wide.
const std::set<std::string, std::less<>> kDefaultRecheckNames = {
    "state", "alive"};

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string, std::less<>> kOrderedKeyedTypes = {
    "map", "set", "multimap", "multiset"};

// The snapshot store's borrowed read accessors (borrow-across-await).
const std::set<std::string, std::less<>> kBorrowAccessors = {"Find",
                                                             "FindByOwner"};

// Trace-recorder entry points whose arguments eager-trace-format checks.
const std::set<std::string, std::less<>> kTraceCalls = {
    "AddArg", "Instant", "StartSpan"};

// Files where unordered iteration is deliberate (debug-only diagnostics
// whose output never feeds event ordering).
const char* const kUnorderedIterationAllowlist[] = {"sim/lock_debug"};

// Workload drivers and examples pace themselves on purpose; polling-loop
// looks only at the simulated system.
const char* const kPollingLoopExempt[] = {"bench/", "examples/"};

// The identifier whose brace initializer in src/fault/fault_points.h is
// the canonical fault-point registry.
constexpr std::string_view kRegistryIdent = "kFaultPointRegistry";

bool IsTok(const std::vector<Token>& t, std::size_t i, std::string_view s) {
  return i < t.size() && t[i].text == s;
}

bool IsMemberSep(const std::vector<Token>& t, std::size_t i) {
  return IsTok(t, i, ".") || IsTok(t, i, "->");
}

bool IsChainSep(const std::vector<Token>& t, std::size_t i) {
  return IsMemberSep(t, i) || IsTok(t, i, "::");
}

// Index just past the matching closer for the opener at `i`.
std::size_t SkipBalanced(const std::vector<Token>& t, std::size_t i,
                         std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == open) ++depth;
    else if (t[i].text == close && --depth == 0) return i + 1;
  }
  return t.size();
}

// Quoted string literal -> contents ("\"ns.point\"" -> "ns.point").
std::string StripQuotes(const std::string& text) {
  if (text.size() >= 2 && (text.front() == '"' || text.front() == '\'')) {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

// A fault-point name: lowercase `ns.point` (exactly one dot, both halves
// [a-z0-9_]). Owner strings and span names never match this shape at the
// checked sites.
bool LooksLikePointName(std::string_view s) {
  std::size_t dot = s.find('.');
  if (dot == 0 || dot == std::string_view::npos || dot + 1 >= s.size()) {
    return false;
  }
  if (s.find('.', dot + 1) != std::string_view::npos) return false;
  for (char c : s) {
    if (c == '.') continue;
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

struct FnDecl {
  std::string name;
  bool returns_task = false;
  std::size_t name_tok = 0;
  std::size_t params_open = 0;   // index of '('
  std::size_t params_close = 0;  // index of ')'
  std::size_t body_open = 0;     // index of '{'; 0 when declaration-only
  std::size_t body_close = 0;    // index of '}'
};

// Scan a token stream for Task<...>/Status/Result<...>-returning function
// declarations and definitions. Pattern-based: a type token in return-type
// position, a name, a parameter list, then `{`, `;`, or `= 0;`.
std::vector<FnDecl> FindFunctions(const std::vector<Token>& t) {
  std::vector<FnDecl> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& ty = t[i].text;
    if (ty != "Task" && ty != "Status" && ty != "Result") continue;

    // Reject member access (`x.Status`) including through a qualifier
    // chain (`obj.sim::Task` cannot occur, but `.` directly before the
    // chain head can).
    std::size_t head = i;
    while (head >= 2 && IsTok(t, head - 1, "::") &&
           t[head - 2].kind == TokKind::kIdent) {
      head -= 2;
    }
    if (head > 0 && IsMemberSep(t, head - 1)) {
      continue;
    }

    std::size_t j = i + 1;
    if (ty == "Task" || ty == "Result") {
      if (!IsTok(t, j, "<")) continue;
      j = SkipBalanced(t, j, "<", ">");
    }
    if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
    if (t[j].text == "operator" || t[j].text == "const") continue;
    // Accept qualified out-of-class definitions: Class::Method(...).
    while (IsTok(t, j + 1, "::") && j + 2 < t.size() &&
           t[j + 2].kind == TokKind::kIdent) {
      j += 2;
    }
    std::size_t name_tok = j;
    if (!IsTok(t, name_tok + 1, "(")) continue;
    std::size_t params_open = name_tok + 1;
    std::size_t params_close = SkipBalanced(t, params_open, "(", ")") - 1;
    if (params_close >= t.size()) continue;

    FnDecl fn;
    fn.name = t[name_tok].text;
    fn.returns_task = (ty == "Task");
    fn.name_tok = name_tok;
    fn.params_open = params_open;
    fn.params_close = params_close;

    // Trailing specifiers, then a body or a declaration terminator.
    std::size_t k = params_close + 1;
    while (k < t.size() &&
           (IsTok(t, k, "const") || IsTok(t, k, "noexcept") ||
            IsTok(t, k, "override") || IsTok(t, k, "final"))) {
      ++k;
    }
    if (IsTok(t, k, "{")) {
      fn.body_open = k;
      fn.body_close = SkipBalanced(t, k, "{", "}") - 1;
    } else if (!IsTok(t, k, ";") && !IsTok(t, k, "=")) {
      continue;  // not a function after all (e.g. a cast or constructor)
    }
    out.push_back(std::move(fn));
  }
  return out;
}

// Names declared somewhere with a non-Task, non-Status return type.
// swaplint matches call sites by name only, so a name that is also, e.g.,
// `void Add(double)` must not fire discarded-status at `Add` call sites:
// ambiguous names resolve to the weakest claim (no diagnostic).
void CollectOtherReturns(const std::vector<Token>& t,
                         std::set<std::string>& out) {
  static const std::set<std::string, std::less<>> kNotATypePrefix = {
      "return", "co_return", "co_await", "co_yield", "else",    "case",
      "new",    "delete",    "throw",    "goto",     "operator", "explicit",
      "using",  "typename",  "class",    "struct",   "enum",     "template",
      "public", "private",   "protected", "friend",  "sizeof",   "if",
      "while",  "for",       "switch",   "do",       "Task",     "Status",
      "Result", "requires",  "concept",
  };
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !IsTok(t, i + 1, "(")) continue;
    const Token& prev = t[i - 1];
    if (prev.kind != TokKind::kIdent) continue;
    if (kNotATypePrefix.count(prev.text) > 0) continue;
    if (i >= 2 && IsMemberSep(t, i - 2)) continue;
    out.insert(t[i].text);
  }
}

// Variable/member names declared with an unordered container type, plus
// functions returning one (iterating the returned temporary is just as
// order-sensitive). Collected tree-wide like the symbol index.
void CollectUnorderedNames(const std::vector<Token>& t,
                           std::set<std::string>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kUnorderedTypes.count(t[i].text) == 0) {
      continue;
    }
    if (!IsTok(t, i + 1, "<")) continue;
    std::size_t j = SkipBalanced(t, i + 1, "<", ">");
    if (j < t.size() && t[j].kind == TokKind::kIdent) out.insert(t[j].text);
  }
}

// --- Per-function model -----------------------------------------------------
//
// A lightweight model of one function body, built on demand on top of the
// symbol index: suspension points, lambda captures, and call sites (as
// identifier chains). The new rule families pattern-match against this
// instead of re-walking raw tokens.

struct LambdaSite {
  std::size_t intro_open = 0;   // '['
  std::size_t intro_close = 0;  // ']'
  bool by_ref = false;          // [&] default or any &x capture
  int line = 0;
};

struct CallSite {
  std::size_t base_tok = 0;  // head of the identifier chain
  std::size_t name_tok = 0;  // callee (chain terminal); '(' follows
  bool member_chain = false;  // every separator was '.'/'->' (not '::')
  int line = 0;
};

struct FunctionModel {
  std::vector<std::size_t> awaits;  // co_await token indices in the body
  std::vector<LambdaSite> lambdas;
  std::vector<CallSite> calls;
};

bool IsLambdaIntro(const std::vector<Token>& t, std::size_t i) {
  if (!IsTok(t, i, "[")) return false;
  // [[attribute]] or nested opener of one.
  if (IsTok(t, i + 1, "[") || (i > 0 && IsTok(t, i - 1, "["))) return false;
  // Subscript: previous token produces a value.
  if (i > 0 && (t[i - 1].kind == TokKind::kIdent ||
                t[i - 1].kind == TokKind::kString ||
                t[i - 1].kind == TokKind::kNumber || IsTok(t, i - 1, ")") ||
                IsTok(t, i - 1, "]"))) {
    return false;
  }
  return true;
}

FunctionModel BuildModel(const std::vector<Token>& t, const FnDecl& fn) {
  FunctionModel m;
  for (std::size_t i = fn.body_open + 1; i < fn.body_close; ++i) {
    if (t[i].kind == TokKind::kIdent) {
      if (t[i].text == "co_await") {
        // `co_return co_await f()` ends the path: nothing later in the
        // body runs after this suspension, so it is not a preceding await
        // for the stale-state analysis.
        if (!IsTok(t, i - 1, "co_return")) m.awaits.push_back(i);
        continue;
      }
      // Chain head: an identifier not preceded by a separator.
      if (i > 0 && IsChainSep(t, i - 1)) continue;
      std::size_t j = i;
      bool member_only = true;
      while (j + 2 < fn.body_close && IsChainSep(t, j + 1) &&
             t[j + 2].kind == TokKind::kIdent) {
        if (!IsMemberSep(t, j + 1)) member_only = false;
        j += 2;
      }
      if (IsTok(t, j + 1, "(")) {
        m.calls.push_back({i, j, member_only, t[j].line});
      }
      continue;
    }
    if (IsLambdaIntro(t, i)) {
      LambdaSite lam;
      lam.intro_open = i;
      lam.intro_close = SkipBalanced(t, i, "[", "]") - 1;
      lam.line = t[i].line;
      int paren = 0;
      for (std::size_t k = i + 1; k < lam.intro_close; ++k) {
        if (t[k].text == "(") ++paren;
        else if (t[k].text == ")") --paren;
        else if (paren == 0 && t[k].text == "&") lam.by_ref = true;
      }
      m.lambdas.push_back(lam);
    }
  }
  return m;
}

// One statement-level span inside a function body: [begin, end) where the
// boundary at `end` is `;`, `{`, or `}` at parenthesis depth zero.
struct Stmt {
  std::size_t begin;
  std::size_t end;
};

std::vector<Stmt> SplitStatements(const std::vector<Token>& t,
                                  std::size_t body_open,
                                  std::size_t body_close) {
  std::vector<Stmt> out;
  int paren = 0;
  std::size_t start = body_open + 1;
  for (std::size_t i = body_open + 1; i < body_close; ++i) {
    const std::string& x = t[i].text;
    if (x == "(") ++paren;
    else if (x == ")") --paren;
    else if ((x == ";" && paren == 0) || x == "{" || x == "}") {
      if (i > start) out.push_back({start, i});
      start = i + 1;
      paren = 0;
    }
  }
  if (body_close > start) out.push_back({start, body_close});
  return out;
}

// A statement of the form `co_await <base>.<AcquireMethod>(...)` bound to a
// guard variable (`auto g = co_await x.Acquire();`).
struct LockAcquire {
  std::size_t stmt_end = 0;    // token index just past the statement
  std::size_t await_tok = 0;   // index of the co_await token
  std::string guard;           // bound guard variable name
  std::string base;            // textual lock expression ("backend.lock")
  std::string method;          // Acquire / AcquireShared / AcquireExclusive
  int line = 0;
};

bool ParseLockAcquire(const std::vector<Token>& t, const Stmt& s,
                      LockAcquire& out) {
  // Find `= co_await` inside the span.
  for (std::size_t i = s.begin + 1; i + 1 < s.end; ++i) {
    if (!IsTok(t, i, "=") || !IsTok(t, i + 1, "co_await")) continue;
    if (i < 1 || t[i - 1].kind != TokKind::kIdent) return false;
    // The awaited expression must end `. <method> ( ... )` at span end.
    std::size_t dot = 0;
    for (std::size_t j = i + 2; j + 2 < s.end; ++j) {
      if (IsMemberSep(t, j) && t[j + 1].kind == TokKind::kIdent &&
          kAcquireMethods.count(t[j + 1].text) > 0 && IsTok(t, j + 2, "(")) {
        dot = j;
      }
    }
    if (dot == 0) return false;
    if (SkipBalanced(t, dot + 2, "(", ")") != s.end) return false;
    out.stmt_end = s.end + 1;
    out.await_tok = i + 1;
    out.guard = t[i - 1].text;
    out.method = t[dot + 1].text;
    out.line = t[i + 1].line;
    std::string base;
    for (std::size_t j = i + 2; j < dot; ++j) base += t[j].text;
    out.base = base;
    return true;
  }
  return false;
}

// Token index where the guard stops being held: an explicit
// `guard.Release()`, a `move(guard)` transfer, or the close of the scope
// enclosing the acquisition.
std::size_t GuardLiveEnd(const std::vector<Token>& t, std::size_t from,
                         std::size_t scope_close, const std::string& guard) {
  for (std::size_t i = from; i < scope_close; ++i) {
    if (t[i].text != guard) continue;
    if (IsMemberSep(t, i + 1) && IsTok(t, i + 2, "Release")) {
      return i;
    }
    if (i >= 2 && IsTok(t, i - 1, "(") && IsTok(t, i - 2, "move")) return i;
  }
  return scope_close;
}

// Close-brace index of the innermost scope containing token `pos`.
std::size_t EnclosingScopeClose(const std::vector<Token>& t,
                                std::size_t body_open, std::size_t body_close,
                                std::size_t pos) {
  std::vector<std::size_t> stack;
  for (std::size_t i = body_open; i <= body_close && i < t.size(); ++i) {
    if (i >= pos) break;
    if (t[i].text == "{") stack.push_back(i);
    else if (t[i].text == "}" && !stack.empty()) stack.pop_back();
  }
  if (stack.empty()) return body_close;
  return SkipBalanced(t, stack.back(), "{", "}") - 1;
}

// A fault-point registry entry with its declaration site (for coverage
// diagnostics).
struct RegistryEntry {
  std::string name;
  int line = 0;
};

std::vector<RegistryEntry> ExtractRegistryEntries(
    const std::vector<Token>& t) {
  std::vector<RegistryEntry> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != kRegistryIdent) continue;
    // Find the initializer brace within the next few tokens ("[] = {").
    std::size_t open = i + 1;
    while (open < t.size() && open < i + 8 && !IsTok(t, open, "{")) ++open;
    if (!IsTok(t, open, "{")) continue;
    std::size_t close = SkipBalanced(t, open, "{", "}") - 1;
    for (std::size_t j = open + 1; j < close && j < t.size(); ++j) {
      if (t[j].kind == TokKind::kString) {
        out.push_back({StripQuotes(t[j].text), t[j].line});
      }
    }
    break;  // one registry per file
  }
  return out;
}

// Shared index built by pass 1 over every added file.
struct TreeIndex {
  std::set<std::string> task_fns;
  std::set<std::string> status_fns;
  std::set<std::string> unordered_names;
  std::set<std::string> recheck_names = [] {
    std::set<std::string> s;
    for (const auto& n : kDefaultRecheckNames) s.insert(std::string(n));
    return s;
  }();
  std::vector<RegistryEntry> registry;
  std::set<std::string, std::less<>> registry_names;
  std::string registry_file;
  const std::vector<Annotation>* registry_annotations = nullptr;
};

class RuleRunner {
 public:
  RuleRunner(const std::string& path, const LexedFile& file,
             const TreeIndex& index, std::vector<Diagnostic>& out)
      : path_(path),
        toks_(file.tokens),
        anns_(file.annotations),
        index_(index),
        out_(out) {}

  void Run() {
    std::vector<FnDecl> fns = FindFunctions(toks_);
    for (const FnDecl& fn : fns) {
      if (fn.returns_task) CheckRefParams(fn);
      if (fn.body_open != 0) {
        CheckStatements(fn);
        if (fn.returns_task) {
          CheckGuardsAndOrder(fn);
          FunctionModel model = BuildModel(toks_, fn);
          CheckSpawnRefCapture(fn, model);
          CheckStaleState(fn, model);
          CheckBorrowAcrossAwait(fn);
        }
      }
    }
    CheckFaultPointNames();
    CheckUnorderedIteration();
    CheckNondeterministicSources();
    CheckPointerOrder();
    CheckEagerTraceFormat();
    CheckPollingLoop();
  }

 private:
  void Emit(const std::string& rule, int line, std::string message,
            std::initializer_list<int> extra_lines = {}) {
    std::vector<int> lines{line};
    lines.insert(lines.end(), extra_lines.begin(), extra_lines.end());
    for (const Annotation& a : anns_) {
      if (a.rule != rule) continue;
      for (int l : lines) {
        if (a.line == l || a.line == l - 1) return;
      }
    }
    out_.push_back({path_, line, rule, std::move(message)});
  }

  // Rule: coro-ref-param. A std::string_view or std::span parameter is a
  // borrow too, however it is passed.
  void CheckRefParams(const FnDecl& fn) {
    int angle = 0;
    int paren = 0;
    for (std::size_t i = fn.params_open + 1; i < fn.params_close; ++i) {
      const std::string& x = toks_[i].text;
      const char* borrow = nullptr;
      if (x == "<") ++angle;
      else if (x == ">") angle = std::max(0, angle - 1);
      else if (x == "(") ++paren;
      else if (x == ")") paren = std::max(0, paren - 1);
      else if (angle > 0 || paren > 0) continue;
      else if (x == "&" || x == "&&") borrow = "by reference";
      else if (x == "*") borrow = "by pointer";
      else if (x == "string_view") borrow = "as a std::string_view";
      else if (x == "span" && IsTok(toks_, i + 1, "<")) {
        borrow = "as a std::span";
      }
      if (borrow == nullptr) continue;
      Emit("coro-ref-param", toks_[i].line,
           "coroutine '" + fn.name + "' takes a parameter " + borrow +
               "; the frame can outlive the caller (use-after-free class) -- "
               "pass by value or annotate the borrow",
           {toks_[fn.name_tok].line});
    }
  }

  // Rules: unawaited-task, discarded-status.
  void CheckStatements(const FnDecl& fn) {
    for (const Stmt& s :
         SplitStatements(toks_, fn.body_open, fn.body_close)) {
      const Token& first = toks_[s.begin];
      if (first.kind != TokKind::kIdent) continue;
      if (kStmtSkipLead.count(first.text) > 0) continue;
      // Walk an identifier chain: a (:: . ->)-separated member path.
      std::size_t i = s.begin;
      std::size_t last_ident = i;
      while (i + 1 < s.end && IsChainSep(toks_, i + 1) &&
             toks_[i + 2].kind == TokKind::kIdent) {
        i += 2;
        last_ident = i;
      }
      if (!IsTok(toks_, i + 1, "(")) continue;
      if (SkipBalanced(toks_, i + 1, "(", ")") != s.end) continue;
      const std::string& callee = toks_[last_ident].text;
      if (index_.task_fns.count(callee) > 0) {
        Emit("unawaited-task", first.line,
             "result of Task-returning '" + callee +
                 "' is neither co_await-ed nor Spawn-ed; lazy tasks never "
                 "run when dropped");
      } else if (index_.status_fns.count(callee) > 0) {
        Emit("discarded-status", first.line,
             "Status/Result of '" + callee +
                 "' is dropped; consume it or cast to (void) with a reason");
      }
    }
  }

  // Rules: guard-across-await, lock-order.
  void CheckGuardsAndOrder(const FnDecl& fn) {
    std::vector<LockAcquire> acquires;
    for (const Stmt& s :
         SplitStatements(toks_, fn.body_open, fn.body_close)) {
      LockAcquire acq;
      if (ParseLockAcquire(toks_, s, acq)) acquires.push_back(acq);
    }

    std::vector<std::size_t> live_end(acquires.size());
    for (std::size_t k = 0; k < acquires.size(); ++k) {
      const LockAcquire& a = acquires[k];
      std::size_t scope = EnclosingScopeClose(toks_, fn.body_open,
                                              fn.body_close, a.await_tok);
      live_end[k] = GuardLiveEnd(toks_, a.stmt_end, scope, a.guard);
    }

    // guard-across-await: a SimMutex guard live at a later co_await. Only
    // plain Acquire() yields SimMutex::Guard; AcquireShared/Exclusive are
    // the rwlock (whose whole point is being held across the swap).
    for (std::size_t k = 0; k < acquires.size(); ++k) {
      const LockAcquire& a = acquires[k];
      if (a.method != "Acquire") continue;
      for (std::size_t i = a.stmt_end; i < live_end[k]; ++i) {
        if (!IsTok(toks_, i, "co_await")) continue;
        Emit("guard-across-await", toks_[i].line,
             "SimMutex guard '" + a.guard + "' (locked at line " +
                 std::to_string(a.line) +
                 ") is held across this co_await; the awaited operation "
                 "can re-enter the guarded component and self-deadlock",
             {a.line});
        break;
      }
    }

    // lock-order: two different locks held concurrently without the
    // name-ordered acquisition idiom (sort the operands by name, then
    // acquire; tests/lint/fixtures/lock_order_ok.cc).
    for (std::size_t k = 0; k + 1 < acquires.size(); ++k) {
      bool reported = false;
      for (std::size_t m = k + 1; m < acquires.size() && !reported; ++m) {
        const LockAcquire& a = acquires[k];
        const LockAcquire& b = acquires[m];
        if (a.base == b.base) continue;
        if (b.await_tok >= live_end[k]) continue;  // a released first
        if (HasOrderingMarker(fn, b.await_tok)) continue;
        Emit("lock-order", b.line,
             "locks '" + a.base + "' and '" + b.base +
                 "' are held together without name-ordered acquisition "
                 "(see tests/lint/fixtures/lock_order_ok.cc); crossed "
                 "callers can ABBA-deadlock",
             {a.line});
        reported = true;
      }
      if (reported) break;
    }
  }

  // Rule: spawn-ref-capture. Scoped to Spawn calls lexically inside a
  // Task-returning coroutine body: a detached lambda borrowing from a frame
  // that can itself be suspended/destroyed (the PR 8 crash interleavings).
  // Spawning from main()/test bodies that run the simulation to completion
  // before unwinding is the sanctioned pattern and stays out of scope.
  void CheckSpawnRefCapture(const FnDecl& fn, const FunctionModel& model) {
    for (const CallSite& call : model.calls) {
      if (toks_[call.name_tok].text != "Spawn") continue;
      std::size_t open = call.name_tok + 1;  // '('
      if (!IsTok(toks_, open + 1, "[")) continue;
      for (const LambdaSite& lam : model.lambdas) {
        if (lam.intro_open != open + 1) continue;
        if (!lam.by_ref) break;
        Emit("spawn-ref-capture", call.line,
             "Spawn()ed lambda in coroutine '" + fn.name +
                 "' captures by reference; the detached frame outlives any "
                 "suspension point of this coroutine (PR 8 crash class) -- "
                 "capture by value, or block on a completion event and "
                 "annotate why the borrow is safe",
             {lam.line});
        break;
      }
    }
  }

  // Rule: stale-state-after-await. For every mutation of crashable state
  // (a Mark*() transition or a snapshot-handle assignment through a member
  // chain), the base object's state must have been re-read between the
  // last preceding suspension point and the mutation -- given the
  // coroutine consulted that state earlier (the author relied on a
  // precondition that every co_await can invalidate).
  void CheckStaleState(const FnDecl& fn, const FunctionModel& model) {
    struct Event {
      std::size_t pos;
      bool is_read;
      std::string base;
      std::string what;  // for the message (mutations only)
      int line;
    };
    std::vector<Event> events;

    for (const CallSite& call : model.calls) {
      const std::string& callee = toks_[call.name_tok].text;
      if (call.base_tok != call.name_tok && call.member_chain) {
        if (index_.recheck_names.count(callee) > 0) {
          events.push_back({call.name_tok, true,
                            toks_[call.base_tok].text, "", call.line});
        } else if (callee.size() > 4 && callee.compare(0, 4, "Mark") == 0) {
          events.push_back({call.name_tok, false, toks_[call.base_tok].text,
                            callee + "()", call.line});
        }
      } else if (call.base_tok == call.name_tok &&
                 index_.recheck_names.count(callee) > 0 &&
                 kDefaultRecheckNames.count(callee) == 0) {
        // Annotated free-function helper: every identifier it is handed
        // counts as re-checked.
        std::size_t close = SkipBalanced(toks_, call.name_tok + 1, "(", ")");
        for (std::size_t j = call.name_tok + 2; j + 1 < close; ++j) {
          if (toks_[j].kind == TokKind::kIdent) {
            events.push_back({call.name_tok, true, toks_[j].text, "",
                              call.line});
          }
        }
      }
    }
    // Crashable-member assignments: `<chain>.snapshot = ...`.
    for (std::size_t i = fn.body_open + 2; i + 2 < fn.body_close; ++i) {
      if (!IsMemberSep(toks_, i)) continue;
      if (toks_[i + 1].kind != TokKind::kIdent ||
          kCrashableMembers.count(toks_[i + 1].text) == 0 ||
          !IsTok(toks_, i + 2, "=")) {
        continue;
      }
      std::size_t k = i - 1;  // chain tail ident; walk back to the head
      while (k >= 2 && IsMemberSep(toks_, k - 1) &&
             toks_[k - 2].kind == TokKind::kIdent) {
        k -= 2;
      }
      if (toks_[k].kind != TokKind::kIdent) continue;
      events.push_back({i + 1, false, toks_[k].text,
                        "." + toks_[i + 1].text + " assignment",
                        toks_[i + 1].line});
    }

    for (const Event& mut : events) {
      if (mut.is_read) continue;
      // Latest suspension point before the mutation.
      std::size_t last_await = 0;
      bool has_await = false;
      for (std::size_t a : model.awaits) {
        if (a < mut.pos) {
          last_await = a;
          has_await = true;
        }
      }
      if (!has_await) continue;
      bool rechecked = false;
      bool read_before = false;
      for (const Event& ev : events) {
        if (!ev.is_read || ev.base != mut.base) continue;
        if (ev.pos > last_await && ev.pos < mut.pos) rechecked = true;
        if (ev.pos < last_await) read_before = true;
      }
      if (rechecked || !read_before) continue;
      Emit("stale-state-after-await", mut.line,
           "'" + mut.base + "' (" + mut.what +
               ") is mutated after a co_await without re-checking its "
               "state; a crash can land at any suspension point (PR 8 "
               "class) -- re-check state()/alive() (or a swaplint-recheck "
               "helper) after the last co_await");
    }
  }

  // Rule: borrow-across-await. A `const ...Snapshot*` (or `&`) declared
  // from the store's borrowed accessor (Find/FindByOwner), or from another
  // such borrow, is valid only until the store next mutates; any co_await
  // lets another coroutine drop or move the snapshot. A use of the name
  // after a later co_await (with no re-borrow in between) is flagged.
  void CheckBorrowAcrossAwait(const FnDecl& fn) {
    struct Borrow {
      std::string name;
      std::size_t from;   // token index where the borrow is fresh
      std::size_t scope;  // close brace of the declaring scope
      int line;
    };
    std::vector<Borrow> borrows;
    const auto rhs_borrows = [&](std::size_t from, std::size_t to) {
      for (std::size_t j = from; j < to; ++j) {
        if (toks_[j].kind != TokKind::kIdent) continue;
        if (kBorrowAccessors.count(toks_[j].text) > 0 &&
            IsTok(toks_, j + 1, "(") && j > 0 && IsMemberSep(toks_, j - 1)) {
          return true;
        }
        if (j > 0 && IsChainSep(toks_, j - 1)) continue;
        for (const Borrow& b : borrows) {
          if (b.name == toks_[j].text) return true;
        }
      }
      return false;
    };
    for (const Stmt& st :
         SplitStatements(toks_, fn.body_open, fn.body_close)) {
      // `[const] [ns::]Snapshot (*|&) name = <rhs>`
      std::size_t i = st.begin;
      if (IsTok(toks_, i, "const")) ++i;
      while (i + 2 < st.end && toks_[i].kind == TokKind::kIdent &&
             IsTok(toks_, i + 1, "::")) {
        i += 2;
      }
      if (!IsTok(toks_, i, "Snapshot") ||
          !(IsTok(toks_, i + 1, "*") || IsTok(toks_, i + 1, "&")) ||
          i + 3 >= st.end || toks_[i + 2].kind != TokKind::kIdent ||
          !IsTok(toks_, i + 3, "=") || !rhs_borrows(i + 4, st.end)) {
        continue;
      }
      borrows.push_back({toks_[i + 2].text, st.end,
                         EnclosingScopeClose(toks_, fn.body_open,
                                             fn.body_close, st.begin),
                         toks_[i + 2].line});
    }
    for (const Borrow& b : borrows) {
      // The co_await that ended the borrow, and the end of its operand:
      // the operand itself is evaluated before the coroutine suspends.
      std::size_t stale_at = 0;
      std::size_t stale_from = toks_.size();
      for (std::size_t i = b.from; i < b.scope; ++i) {
        if (IsTok(toks_, i, "co_await")) {
          const bool path_ends = IsTok(toks_, i - 1, "co_return");
          if (!path_ends && stale_at == 0) {
            stale_at = i;
            stale_from = AwaitOperandEnd(i);
          }
          continue;
        }
        if (toks_[i].text != b.name || (i > 0 && IsChainSep(toks_, i - 1))) {
          continue;
        }
        if (IsTok(toks_, i + 1, "=")) {
          // `name = ...`: a fresh borrow if it reads the accessor again.
          const std::size_t end = SkipToStatementEnd(i);
          if (rhs_borrows(i + 2, end)) {
            stale_at = 0;
            stale_from = toks_.size();
          }
          i = end;
          continue;
        }
        if (i < stale_from) continue;
        Emit("borrow-across-await", toks_[i].line,
             "snapshot '" + b.name + "' borrowed from the store at line " +
                 std::to_string(b.line) + " is used after the co_await at "
                 "line " + std::to_string(toks_[stale_at].line) +
                 "; the store can drop or move it while suspended -- copy "
                 "the snapshot (or the fields you need) before awaiting",
             {b.line});
        break;
      }
    }
  }

  // Index just past the operand of the co_await at `i`: an identifier
  // chain with its call arguments (`sim_.Delay(d)`, `x->done.Wait()`).
  std::size_t AwaitOperandEnd(std::size_t i) const {
    std::size_t j = i + 1;
    while (j < toks_.size()) {
      if (toks_[j].kind == TokKind::kIdent || IsChainSep(toks_, j)) {
        ++j;
      } else if (IsTok(toks_, j, "(")) {
        j = SkipBalanced(toks_, j, "(", ")");
      } else {
        break;
      }
    }
    return j;
  }

  // Index of the `;` ending the statement that contains token `i`.
  std::size_t SkipToStatementEnd(std::size_t i) const {
    int paren = 0;
    for (; i < toks_.size(); ++i) {
      if (toks_[i].text == "(") ++paren;
      else if (toks_[i].text == ")") --paren;
      else if (toks_[i].text == ";" && paren <= 0) return i;
    }
    return toks_.size();
  }

  // Rule: fault-point-name. Every `"ns.point"` literal at an injector
  // Evaluate()/fires() call or a `point = "..."` assignment must be a
  // registered fault point: a typo here silently never fires.
  void CheckFaultPointNames() {
    if (index_.registry_names.empty()) return;
    auto check_literal = [&](const Token& tok) {
      const std::string name = StripQuotes(tok.text);
      if (!LooksLikePointName(name)) return;
      if (index_.registry_names.count(name) > 0) return;
      Emit("fault-point-name", tok.line,
           "\"" + name +
               "\" is not a registered fault point "
               "(src/fault/fault_points.h); a typo'd point never fires");
    };
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      const std::string& name = toks_[i].text;
      if ((name == "Evaluate" || name == "fires") &&
          IsTok(toks_, i + 1, "(")) {
        std::size_t close = SkipBalanced(toks_, i + 1, "(", ")");
        for (std::size_t j = i + 2; j + 1 < close; ++j) {
          if (toks_[j].kind == TokKind::kString) check_literal(toks_[j]);
        }
      } else if (name == "point" && IsTok(toks_, i + 1, "=") &&
                 i + 2 < toks_.size() &&
                 toks_[i + 2].kind == TokKind::kString) {
        check_literal(toks_[i + 2]);
      }
    }
  }

  // Rule: unordered-iteration. Range-for over an unordered container:
  // hash-order iteration leaks into event order and breaks golden traces.
  void CheckUnorderedIteration() {
    for (const char* allow : kUnorderedIterationAllowlist) {
      if (path_.find(allow) != std::string::npos) return;
    }
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent || toks_[i].text != "for" ||
          !IsTok(toks_, i + 1, "(")) {
        continue;
      }
      std::size_t close = SkipBalanced(toks_, i + 1, "(", ")") - 1;
      // Find the range-for ':' at paren depth 1.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j <= close && j < toks_.size(); ++j) {
        if (toks_[j].text == "(") ++depth;
        else if (toks_[j].text == ")") --depth;
        else if (toks_[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      // The range expression must BE the container -- a bare identifier
      // chain ending at an unordered name. Anything involving a call
      // (`SortedKeys(table)`, `table.Values()`) is the sanctioned fix
      // shape and stays silent.
      std::size_t j = colon + 1;
      while (j < close && (toks_[j].text == "*" || toks_[j].text == "&")) {
        ++j;
      }
      if (j >= close || toks_[j].kind != TokKind::kIdent) continue;
      while (j + 2 < close && IsChainSep(toks_, j + 1) &&
             toks_[j + 2].kind == TokKind::kIdent) {
        j += 2;
      }
      if (j + 1 != close) continue;
      if (index_.unordered_names.count(toks_[j].text) > 0) {
        Emit("unordered-iteration", toks_[i].line,
             "range-for over unordered container '" + toks_[j].text +
                 "'; hash-order iteration leaks into event order and "
                 "breaks golden-trace determinism -- use an ordered "
                 "container or sort the keys first");
      }
    }
  }

  // Rule: nondeterministic-source. Wall-clock and unseeded entropy have no
  // place outside the seeded fault streams.
  void CheckNondeterministicSources() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      const std::string& name = toks_[i].text;
      if (name == "system_clock") {
        Emit("nondeterministic-source", toks_[i].line,
             "std::chrono::system_clock is wall-clock; virtual time comes "
             "from sim::Simulation::Now()");
      } else if (name == "random_device") {
        Emit("nondeterministic-source", toks_[i].line,
             "std::random_device is unseeded entropy; draw from the seeded "
             "sim::Rng streams");
      } else if ((name == "rand" || name == "srand") &&
                 IsTok(toks_, i + 1, "(") &&
                 !(i > 0 && IsMemberSep(toks_, i - 1))) {
        Emit("nondeterministic-source", toks_[i].line,
             name + "() is unseeded global entropy; draw from the seeded "
                    "sim::Rng streams");
      }
    }
  }

  // Rule: pointer-order. An ordered map/set keyed on a pointer orders by
  // allocator-dependent addresses: iteration order differs run to run.
  void CheckPointerOrder() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent ||
          kOrderedKeyedTypes.count(toks_[i].text) == 0 ||
          !IsTok(toks_, i + 1, "<")) {
        continue;
      }
      // Scan the first template argument (up to a depth-1 ',' or the
      // closing '>') for a top-level '*'.
      int angle = 0;
      int paren = 0;
      for (std::size_t j = i + 1; j < toks_.size(); ++j) {
        const std::string& x = toks_[j].text;
        if (x == "<") ++angle;
        else if (x == ">") {
          if (--angle == 0) break;
        } else if (x == "(") ++paren;
        else if (x == ")") --paren;
        else if (angle == 1 && paren == 0) {
          if (x == ",") break;
          if (x == "*") {
            Emit("pointer-order", toks_[j].line,
                 "ordered std::" + toks_[i].text +
                     " keyed on a pointer; address order is allocator-"
                     "dependent and differs run to run -- key on a stable "
                     "name/id instead");
            break;
          }
        }
      }
    }
  }

  // Rule: eager-trace-format. Call arguments are evaluated before the
  // recorder can check whether it is on, so a std::to_string(), a
  // .ToString() or a string concatenation inside AddArg/Instant/StartSpan
  // formats on every call, traced or not. Numbers go in as numbers and
  // dynamic instant names as a {prefix, suffix} pair; the recorder formats
  // only what it records. A call guarded by `if (span.active())` is not
  // eager: it runs only when the span records.
  void CheckEagerTraceFormat() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent ||
          kTraceCalls.count(toks_[i].text) == 0 ||
          !IsTok(toks_, i + 1, "(") || GuardedByActiveSpan(i)) {
        continue;
      }
      const std::string& call = toks_[i].text;
      const std::size_t close = SkipBalanced(toks_, i + 1, "(", ")") - 1;
      for (std::size_t j = i + 2; j < close; ++j) {
        if ((toks_[j].text == "to_string" || toks_[j].text == "ToString") &&
            IsTok(toks_, j + 1, "(")) {
          Emit("eager-trace-format", toks_[j].line,
               toks_[j].text + "() inside " + call +
                   "() formats even when tracing is off; pass the number "
                   "itself (the recorder renders it only when it records) "
                   "or guard the call with `if (span.active())`");
        } else if (toks_[j].text == "+" &&
                   (toks_[j - 1].kind == TokKind::kString ||
                    toks_[j + 1].kind == TokKind::kString)) {
          Emit("eager-trace-format", toks_[j].line,
               "string concatenation inside " + call +
                   "() builds a string even when tracing is off; pass a "
                   "{prefix, suffix} name or a track built once");
        }
      }
    }
  }

  // Rule: polling-loop. A `while` loop whose first statement is
  // `co_await <x>.Delay(...)` wakes on a fixed cadence whether or not
  // anything changed; in a long, mostly idle run those wake-ups dominate
  // the event count. Park on a signal from whatever changes the loop's
  // inputs, or sleep straight to a known instant with WaitUntil().
  void CheckPollingLoop() {
    for (const char* exempt : kPollingLoopExempt) {
      if (path_.find(exempt) != std::string::npos) return;
    }
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent || toks_[i].text != "while" ||
          !IsTok(toks_, i + 1, "(")) {
        continue;
      }
      std::size_t j = SkipBalanced(toks_, i + 1, "(", ")");
      if (IsTok(toks_, j, "{")) ++j;
      if (!IsTok(toks_, j, "co_await")) continue;
      // Walk the awaited receiver chain (`sim_`, `sim()`, `a->b`) to a
      // member call named Delay.
      for (std::size_t k = j + 1; k < toks_.size();) {
        if (IsTok(toks_, k, "Delay") && IsTok(toks_, k + 1, "(") &&
            IsMemberSep(toks_, k - 1)) {
          Emit("polling-loop", toks_[i].line,
               "loop wakes every Delay() whether or not anything changed; "
               "park on a change signal or WaitUntil() a known instant");
          break;
        }
        if (toks_[k].kind == TokKind::kIdent || IsChainSep(toks_, k)) {
          ++k;
        } else if (IsTok(toks_, k, "(")) {
          k = SkipBalanced(toks_, k, "(", ")");
        } else {
          break;
        }
      }
    }
  }

  // True when the trace call at `i` (`span.AddArg(`) is the body of
  // `if (span.active())` on the same receiver.
  bool GuardedByActiveSpan(std::size_t i) const {
    if (i < 10 || !IsMemberSep(toks_, i - 1)) return false;
    const std::size_t recv = i - 2;
    return IsTok(toks_, recv - 8, "if") && IsTok(toks_, recv - 7, "(") &&
           toks_[recv - 6].text == toks_[recv].text &&
           IsMemberSep(toks_, recv - 5) && IsTok(toks_, recv - 4, "active") &&
           IsTok(toks_, recv - 3, "(") && IsTok(toks_, recv - 2, ")") &&
           IsTok(toks_, recv - 1, ")");
  }

  bool HasOrderingMarker(const FnDecl& fn, std::size_t before) const {
    for (std::size_t i = fn.body_open; i < before; ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      if (toks_[i].text == "swap" || toks_[i].text == "sort" ||
          toks_[i].text == "Sort") {
        return true;
      }
    }
    return false;
  }

  const std::string& path_;
  const std::vector<Token>& toks_;
  const std::vector<Annotation>& anns_;
  const TreeIndex& index_;
  std::vector<Diagnostic>& out_;
};

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"coro-ref-param",
       "no reference, pointer, string_view or span parameters on "
       "Task<>-returning coroutines"},
      {"spawn-ref-capture",
       "no by-reference lambda captures on Spawn() inside a coroutine"},
      {"stale-state-after-await",
       "crashable state is re-checked between the last co_await and its "
       "mutation"},
      {"unawaited-task",
       "every Task<> call is co_await-ed or passed to Spawn"},
      {"discarded-status", "Status/Result results are consumed, not dropped"},
      {"guard-across-await",
       "SimMutex::Guard is not held across an unrelated co_await"},
      {"borrow-across-await",
       "a snapshot borrowed from the store's Find/FindByOwner is not used "
       "after a later co_await"},
      {"lock-order",
       "multi-lock acquisitions follow the name-ordered convention"},
      {"fault-point-name",
       "every \"ns.point\" literal at Evaluate/point= sites is a registered "
       "fault point"},
      {"fault-point-coverage",
       "every registered fault point is armed by some chaos table"},
      {"unordered-iteration",
       "no range-for over unordered containers outside allowlisted "
       "debug code"},
      {"nondeterministic-source",
       "no wall-clock (system_clock) or unseeded entropy "
       "(random_device/rand)"},
      {"pointer-order", "no ordered map/set keyed on a pointer type"},
      {"eager-trace-format",
       "no std::to_string, .ToString() or string concatenation in "
       "unguarded AddArg/Instant/StartSpan arguments"},
      {"polling-loop",
       "no while loop that starts by awaiting a fixed Delay() outside "
       "bench/ and examples/"},
  };
  return kRules;
}

std::vector<std::string> ExtractFaultPointNames(std::string_view content) {
  LexedFile lexed = Lex(content);
  std::vector<std::string> out;
  for (RegistryEntry& e : ExtractRegistryEntries(lexed.tokens)) {
    out.push_back(std::move(e.name));
  }
  return out;
}

std::vector<std::string> UnarmedFaultPoints(
    const std::vector<std::string>& registry,
    const std::vector<std::string_view>& chaos_contents) {
  std::set<std::string> armed;
  for (std::string_view content : chaos_contents) {
    LexedFile lexed = Lex(content);
    for (const Token& tok : lexed.tokens) {
      if (tok.kind == TokKind::kString) armed.insert(StripQuotes(tok.text));
    }
  }
  std::vector<std::string> out;
  for (const std::string& point : registry) {
    if (armed.count(point) == 0) out.push_back(point);
  }
  return out;
}

std::string BaselineKey(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "]";
}

std::string SerializeBaseline(const std::vector<Diagnostic>& diags) {
  std::string out =
      "# swaplint baseline: known findings that do not fail the sweep.\n"
      "# Regenerate with `swaplint --write-baseline <file> <roots>...`.\n";
  for (const Diagnostic& d : diags) out += BaselineKey(d) + "\n";
  return out;
}

std::set<std::string> ParseBaseline(std::string_view text) {
  std::set<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (!line.empty() && line.front() != '#') out.insert(std::string(line));
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

std::size_t ApplyBaseline(std::vector<Diagnostic>& diags,
                          const std::set<std::string>& baseline) {
  std::size_t before = diags.size();
  diags.erase(std::remove_if(diags.begin(), diags.end(),
                             [&](const Diagnostic& d) {
                               return baseline.count(BaselineKey(d)) > 0;
                             }),
              diags.end());
  return before - diags.size();
}

void Linter::AddFile(std::string path, std::string_view content) {
  files_.push_back({std::move(path), Lex(content)});
}

void Linter::AddChaosFile(std::string /*path*/, std::string_view content) {
  chaos_contents_.emplace_back(content);
}

std::vector<Diagnostic> Linter::Run() {
  // Pass 1: discover Task- and Status/Result-returning function names,
  // unordered-container names, re-check helpers, and the fault-point
  // registry across the whole tree so call sites in other files resolve.
  TreeIndex index;
  std::set<std::string> other_fns;
  for (const FileData& f : files_) {
    for (const FnDecl& fn : FindFunctions(f.lexed.tokens)) {
      (fn.returns_task ? index.task_fns : index.status_fns).insert(fn.name);
    }
    CollectOtherReturns(f.lexed.tokens, other_fns);
    CollectUnorderedNames(f.lexed.tokens, index.unordered_names);
    for (const Annotation& a : f.lexed.recheck_helpers) {
      index.recheck_names.insert(a.rule);
    }
    if (index.registry.empty()) {
      std::vector<RegistryEntry> found =
          ExtractRegistryEntries(f.lexed.tokens);
      if (!found.empty()) {
        index.registry = std::move(found);
        index.registry_file = f.path;
        index.registry_annotations = &f.lexed.annotations;
        for (const RegistryEntry& e : index.registry) {
          index.registry_names.insert(e.name);
        }
      }
    }
  }
  // A name that is both (overloads across classes) counts as a task: the
  // stricter diagnostic wins. Names that also resolve to some unrelated
  // return type stay silent entirely.
  for (const std::string& name : index.task_fns) {
    index.status_fns.erase(name);
  }
  for (const std::string& name : other_fns) {
    index.task_fns.erase(name);
    index.status_fns.erase(name);
  }

  std::vector<Diagnostic> out;
  for (const FileData& f : files_) {
    RuleRunner(f.path, f.lexed, index, out).Run();
  }

  // Registry <-> chaos-table coverage: a point nothing arms means a whole
  // failure mode the 100-seed suites never exercise.
  if (!chaos_contents_.empty() && !index.registry.empty()) {
    std::vector<std::string_view> views(chaos_contents_.begin(),
                                        chaos_contents_.end());
    std::vector<std::string> reg;
    for (const RegistryEntry& e : index.registry) reg.push_back(e.name);
    for (const std::string& point : UnarmedFaultPoints(reg, views)) {
      int line = 0;
      for (const RegistryEntry& e : index.registry) {
        if (e.name == point) line = e.line;
      }
      bool suppressed = false;
      if (index.registry_annotations != nullptr) {
        for (const Annotation& a : *index.registry_annotations) {
          if (a.rule == "fault-point-coverage" &&
              (a.line == line || a.line == line - 1)) {
            suppressed = true;
          }
        }
      }
      if (!suppressed) {
        out.push_back({index.registry_file, line, "fault-point-coverage",
                       "fault point \"" + point +
                           "\" is registered but no chaos table arms it; "
                           "the failure mode is never exercised"});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Diagnostic> LintSource(std::string path,
                                   std::string_view content) {
  Linter linter;
  linter.AddFile(std::move(path), content);
  return linter.Run();
}

}  // namespace swaplint
