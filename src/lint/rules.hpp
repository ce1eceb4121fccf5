// The p8lint rule registry: the project conventions that guarantee
// bit-identical reproduction of the paper's figures, stated as
// mechanical checks over the token stream.
//
// Rules are deliberately shaped like sim::ModelAudit's validation
// rules: a flat registry of named checks, each producing structured
// findings (`file:line rule-id message`) and nothing else — no state,
// no ordering dependence, so the report is deterministic for a given
// tree.  docs/ANALYSIS.md carries the rule table (rule-id → enforced
// invariant → paper/PR artifact it protects).
#pragma once

#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace p8::lint {

struct Finding {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;
  std::string rule;
  std::string message;
};

/// Everything a rule may look at for one file.  `code` indexes into
/// `tokens`, keeping only the kinds is_code() accepts — so a rule that
/// walks `code` can never be fooled by comments, string prefixes to a
/// directive, or `#if 0` regions.
struct FileContext {
  std::string path;
  const std::vector<Token>* tokens = nullptr;
  std::vector<std::size_t> code;       // indices of code tokens
  const std::string* counters_doc = nullptr;  // docs/COUNTERS.md, if loaded
};

struct Rule {
  const char* id;
  const char* summary;
  void (*check)(const FileContext&, std::vector<Finding>&);
};

/// All registered rules, in stable (report) order.
const std::vector<Rule>& rules();

/// nullptr when `id` names no registered rule.
const Rule* find_rule(const std::string& id);

// Path predicates shared by the rules and the fixture runner.
bool path_in_model_scope(const std::string& path);  // determinism rules
bool is_hot_path_header(const std::string& path);   // contract-throw rule

/// The counter-name grammar: optional leading/trailing dot joiners
/// around lowercase dotted segments of [a-z0-9_-].  "l3.victim.hit",
/// ".mbs" and "probe." pass; "L1 Hits!", "l1..hit" and "" fail.
bool counter_literal_ok(const std::string& literal);

}  // namespace p8::lint
