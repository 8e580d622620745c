#include <string>
#include <vector>

#include "lint/rules.h"
#include "lint/semantic_model.h"

namespace delprop {
namespace lint {
namespace {

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

/// Loop-structure tracker for one function body: a brace stack whose frames
/// know whether they belong to a loop, plus a count of single-statement
/// loop bodies (`for (...) stmt;`) still waiting for their terminating `;`.
/// Lexical only — good enough because the rule's findings are suppressible.
struct LoopScan {
  struct StmtLoop {
    size_t brace_depth;  // the `;` that ends the body sits at this depth
  };

  std::vector<bool> brace_is_loop;
  std::vector<StmtLoop> stmt_loops;
  // A loop header was seen; skipping its parenthesized clause(s).
  bool pending_header = false;
  size_t header_parens = 0;
  // The header's parens closed; the next token starts the body.
  bool pending_body = false;

  bool InLoop() const {
    if (!stmt_loops.empty()) return true;
    for (bool is_loop : brace_is_loop) {
      if (is_loop) return true;
    }
    return false;
  }

  void Feed(const Token& t) {
    if (pending_body) {
      pending_body = false;
      if (t.Is("{")) {
        brace_is_loop.push_back(true);
        return;
      }
      // `for (...) stmt;` — the body is one statement; it may open nested
      // braces (a lambda), so remember the depth its `;` must appear at.
      stmt_loops.push_back(StmtLoop{brace_is_loop.size()});
      // Fall through: `t` is the body's first token and may itself be a
      // loop keyword or a brace.
    }
    if (pending_header) {
      if (t.Is("(")) {
        ++header_parens;
      } else if (t.Is(")")) {
        if (header_parens > 0 && --header_parens == 0) {
          pending_header = false;
          pending_body = true;
        }
      }
      return;
    }
    if (t.Is("for") || t.Is("while")) {
      pending_header = true;
      header_parens = 0;
      return;
    }
    if (t.Is("do")) {
      // `do { ... } while (...);` — the body follows immediately, no
      // parenthesized header. The trailing `while` re-enters the header
      // path above and its empty "body" closes on the final `;`.
      pending_body = true;
      return;
    }
    if (t.Is("{")) {
      brace_is_loop.push_back(false);
    } else if (t.Is("}")) {
      if (!brace_is_loop.empty()) brace_is_loop.pop_back();
    } else if (t.Is(";")) {
      while (!stmt_loops.empty() &&
             stmt_loops.back().brace_depth == brace_is_loop.size()) {
        stmt_loops.pop_back();
      }
    }
  }
};

}  // namespace

void ScalarKillLoopRule::Check(const SourceFile& file,
                               std::vector<Diagnostic>* out) const {
  if (model_ == nullptr) return;
  const std::vector<size_t>* indices = model_->FunctionsInFile(file.path());
  if (indices == nullptr) return;
  const std::vector<Token>& toks = file.tokens();

  for (size_t idx : *indices) {
    if (!model_->IsHotReachable(idx)) continue;
    const FunctionInfo& fn = model_->functions()[idx];
    const std::string chain = model_->HotChain(idx);

    LoopScan scan;
    int last_line = 0;  // one finding per source line
    for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
      const Token& t = toks[k];
      scan.Feed(t);
      if (!scan.InLoop() || !IsIdent(t)) continue;
      bool hit = false;
      if (t.Is("witness_hits_")) {
        hit = k + 1 < fn.body_end && toks[k + 1].Is("[");
      } else if (t.Is("witness_hits")) {
        // The accessor call `x.witness_hits(...)` / `->witness_hits(...)`;
        // a bare mention (declaration, comment code) is not a loop walk.
        hit = k + 1 < fn.body_end && toks[k + 1].Is("(") && k > 0 &&
              (toks[k - 1].Is(".") || toks[k - 1].Is("->"));
      }
      if (!hit || t.line == last_line) continue;
      last_line = t.line;
      out->push_back(Diagnostic{
          file.path(), t.line, std::string(name()),
          "per-witness counter walk in a loop of hot function '" +
              fn.qualified + "' (reached via " + chain +
              "); query the bit kernels (MarginalDamageBase, "
              "ForEachNewlyKilled, ForEachUnhitWitness, dead_witness_count) "
              "or mark a cold walk with // delprop-lint: scalar-kill-loop-ok"});
    }
  }
}

}  // namespace lint
}  // namespace delprop
