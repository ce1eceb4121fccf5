// p8lint's scanner and engine: the hard lexing cases (raw strings,
// digit separators, splices, comment/string nesting, #if 0 regions),
// the losslessness contract as a randomized property over real repo
// lines, and the rule/allowlist/annotation machinery the gate rests
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/allowlist.hpp"
#include "lint/engine.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "proptest.hpp"

namespace p8::lint {
namespace {

std::string concat(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) out += t.text;
  return out;
}

/// Asserts the full losslessness contract on one input: the tokens
/// partition the bytes, offsets are exact, nothing is empty.
void expect_lossless(const std::string& input) {
  const std::vector<Token> tokens = lex(input);
  EXPECT_EQ(concat(tokens), input);
  std::size_t offset = 0;
  for (const Token& t : tokens) {
    EXPECT_FALSE(t.text.empty());
    EXPECT_EQ(t.offset, offset);
    offset += t.text.size();
  }
  EXPECT_EQ(offset, input.size());
}

/// The kinds of the non-whitespace tokens, for shape assertions.
std::vector<Tok> shape(const std::vector<Token>& tokens) {
  std::vector<Tok> kinds;
  for (const Token& t : tokens)
    if (t.kind != Tok::kWhitespace) kinds.push_back(t.kind);
  return kinds;
}

/// The first token of the given kind, or nullptr.
const Token* first(const std::vector<Token>& tokens, Tok kind) {
  for (const Token& t : tokens)
    if (t.kind == kind) return &t;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Raw strings

TEST(LintLexer, RawStringSwallowsCommentAndQuoteLookalikes) {
  const std::string src =
      "const char* s = R\"(has \" quote and /* comment */ and 'x')\";\n";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* raw = first(tokens, Tok::kRawString);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(string_payload(*raw), "has \" quote and /* comment */ and 'x'");
  EXPECT_EQ(first(tokens, Tok::kComment), nullptr);
  EXPECT_EQ(first(tokens, Tok::kCharLit), nullptr);
}

TEST(LintLexer, RawStringCustomDelimiterIgnoresInnerCloser) {
  const std::string src = "auto s = R\"xy(inner )\" not the end)xy\";";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* raw = first(tokens, Tok::kRawString);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(string_payload(*raw), "inner )\" not the end");
}

TEST(LintLexer, RawStringEncodingPrefixesMergeIntoOneToken) {
  for (const char* prefix : {"LR", "uR", "UR", "u8R"}) {
    const std::string src = std::string(prefix) + "\"(payload)\";";
    const std::vector<Token> tokens = lex(src);
    expect_lossless(src);
    const Token* raw = first(tokens, Tok::kRawString);
    ASSERT_NE(raw, nullptr) << prefix;
    EXPECT_EQ(raw->offset, 0u) << prefix;
    EXPECT_EQ(string_payload(*raw), "payload") << prefix;
  }
}

TEST(LintLexer, UnterminatedRawStringRunsToEofWithoutLoss) {
  expect_lossless("auto s = R\"(never closed...\nint x = 1;\n");
}

// ---------------------------------------------------------------------------
// Numbers and digit separators

TEST(LintLexer, DigitSeparatorsStayOneNumberNotACharLiteral) {
  const std::string src = "std::size_t n = 1'000'000;";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* num = first(tokens, Tok::kNumber);
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->text, "1'000'000");
  EXPECT_EQ(first(tokens, Tok::kCharLit), nullptr);
}

TEST(LintLexer, PpNumberFormsScanAsOneToken) {
  for (const char* lit : {"0x1p3", "1.5e-3", "0b1010", "1.0e+10", "0x1'2'3",
                          ".5f", "123ull"}) {
    const std::string src = std::string("x = ") + lit + ";";
    const std::vector<Token> tokens = lex(src);
    expect_lossless(src);
    const Token* num = first(tokens, Tok::kNumber);
    ASSERT_NE(num, nullptr) << lit;
    EXPECT_EQ(num->text, lit) << lit;
  }
}

// ---------------------------------------------------------------------------
// Comments, splices, and strings containing comment markers

TEST(LintLexer, LineCommentSpliceContinuesOntoNextLine) {
  // The backslash-newline glues the second physical line into the
  // comment, so `hidden()` must NOT surface as code.
  const std::string src = "int a; // comment \\\nhidden(); \nint b;";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* comment = first(tokens, Tok::kComment);
  ASSERT_NE(comment, nullptr);
  EXPECT_NE(comment->text.find("hidden"), std::string::npos);
  for (const Token& t : tokens)
    if (t.kind == Tok::kIdentifier) {
      EXPECT_NE(t.text, "hidden");
    }
}

TEST(LintLexer, PreprocessorSpliceIsOneDirectiveToken) {
  const std::string src = "#define TWO_LINES(a) \\\n  ((a) + 1)\nint x;";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* pp = first(tokens, Tok::kPreprocessor);
  ASSERT_NE(pp, nullptr);
  EXPECT_NE(pp->text.find("((a) + 1)"), std::string::npos);
  const Token* id = first(tokens, Tok::kIdentifier);
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->text, "int");
}

TEST(LintLexer, CommentMarkersInsideStringsStayStrings) {
  const std::string src =
      "const char* a = \"/* not a comment */\";\n"
      "const char* b = \"// neither\";\n"
      "/* a real one with \"a string\" inside */";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  int strings = 0, comments = 0;
  for (const Token& t : tokens) {
    strings += t.kind == Tok::kString;
    comments += t.kind == Tok::kComment;
  }
  EXPECT_EQ(strings, 2);
  EXPECT_EQ(comments, 1);
}

TEST(LintLexer, BlockCommentSwallowsNestedOpenersToFirstCloser) {
  const std::string src = "/* outer /* still the same comment */ int x;";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const std::vector<Tok> kinds = shape(tokens);
  ASSERT_EQ(kinds.size(), 4u);  // comment, int, x, ;
  EXPECT_EQ(kinds[0], Tok::kComment);
  EXPECT_EQ(kinds[1], Tok::kIdentifier);
}

TEST(LintLexer, UnterminatedBlockCommentRunsToEof) {
  const std::string src = "int a; /* never closed\nint b;";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  int identifiers = 0;
  for (const Token& t : tokens) identifiers += t.kind == Tok::kIdentifier;
  EXPECT_EQ(identifiers, 2);  // int, a — b is inside the comment
}

TEST(LintLexer, EscapedQuotesDoNotEndTheString) {
  const std::string src = R"(x = "a \" b \\" ; )";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* str = first(tokens, Tok::kString);
  ASSERT_NE(str, nullptr);
  EXPECT_EQ(str->text, "\"a \\\" b \\\\\"");
}

// ---------------------------------------------------------------------------
// #if 0 regions

TEST(LintLexer, IfZeroRegionIsOneDisabledSpan) {
  const std::string src =
      "int live1;\n"
      "#if 0\n"
      "int dead; std::rand();\n"
      "#endif\n"
      "int live2;\n";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  const Token* disabled = first(tokens, Tok::kDisabled);
  ASSERT_NE(disabled, nullptr);
  EXPECT_NE(disabled->text.find("rand"), std::string::npos);
  std::vector<std::string> identifiers;
  for (const Token& t : tokens)
    if (t.kind == Tok::kIdentifier) identifiers.push_back(t.text);
  EXPECT_EQ(identifiers,
            (std::vector<std::string>{"int", "live1", "int", "live2"}));
}

TEST(LintLexer, IfZeroTracksNestedConditionals) {
  const std::string src =
      "#if 0\n"
      "#ifdef FOO\n"
      "int dead;\n"
      "#endif\n"
      "int also_dead;\n"
      "#endif\n"
      "int live;\n";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  // The inner #ifdef/#endif pair belongs to the disabled span; only
  // the outer terminator lexes as a directive.
  const Token* disabled = first(tokens, Tok::kDisabled);
  ASSERT_NE(disabled, nullptr);
  EXPECT_NE(disabled->text.find("also_dead"), std::string::npos);
  for (const Token& t : tokens)
    if (t.kind == Tok::kIdentifier) {
      EXPECT_NE(t.text, "also_dead");
    }
}

TEST(LintLexer, IfZeroStopsAtElseSoTheLiveBranchIsCode) {
  const std::string src =
      "#if 0\n"
      "int dead;\n"
      "#else\n"
      "int live;\n"
      "#endif\n";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  bool saw_live = false;
  for (const Token& t : tokens)
    if (t.kind == Tok::kIdentifier && t.text == "live") saw_live = true;
  EXPECT_TRUE(saw_live);
}

TEST(LintLexer, UnterminatedIfZeroRunsToEof) {
  expect_lossless("#if 0\nint dead;\n");
}

// ---------------------------------------------------------------------------
// Char literals and stray quotes

TEST(LintLexer, CharLiteralsIncludingEscapedQuote) {
  for (const char* lit : {"'a'", "'\\''", "'\\n'", "'\\x41'"}) {
    const std::string src = std::string("c = ") + lit + ";";
    const std::vector<Token> tokens = lex(src);
    expect_lossless(src);
    const Token* c = first(tokens, Tok::kCharLit);
    ASSERT_NE(c, nullptr) << lit;
    EXPECT_EQ(c->text, lit) << lit;
  }
}

TEST(LintLexer, StrayQuoteDegradesToPunctNotLostBytes) {
  expect_lossless("int a = b ' c;\n");
  expect_lossless("char c = '");
  expect_lossless("\"unterminated\nint x;");
}

TEST(LintLexer, LineNumbersCountPhysicalLines) {
  const std::string src = "a\n\nb /* c1\nc2 */ d\ne";
  const std::vector<Token> tokens = lex(src);
  expect_lossless(src);
  std::vector<std::pair<std::string, int>> ids;
  for (const Token& t : tokens)
    if (t.kind == Tok::kIdentifier) ids.emplace_back(t.text, t.line);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], (std::pair<std::string, int>{"a", 1}));
  EXPECT_EQ(ids[1], (std::pair<std::string, int>{"b", 3}));
  EXPECT_EQ(ids[2], (std::pair<std::string, int>{"d", 4}));
  EXPECT_EQ(ids[3], (std::pair<std::string, int>{"e", 5}));
}

// ---------------------------------------------------------------------------
// The losslessness property: random concatenations of real repo lines
// (verbatim snippets from this tree, chosen for lexical hostility)
// must always partition exactly — never lose or fabricate a byte.

const std::vector<std::string>& repo_lines() {
  static const std::vector<std::string> lines = {
      "void StealDeque::push(TaskId id) {",
      "  ring_[b & mask_].store(id);",
      "  bottom_.store(b + 1);  // publishes the slot to thieves",
      "static_assert(sizeof(PackedEri) == 16, \"ERI record packs\");",
      "#include \"sim/machine/machine.hpp\"",
      "#define P8_STATIC_REQUIRE(expr, msg) static_assert(expr, msg)",
      "const std::int64_t t = top_.load(std::memory_order_relaxed);",
      "std::uint64_t key = 0xcbf29ce484222325ULL;  // FNV-ish fold",
      "  key *= 0x100000001b3ULL;",
      "out << \"  \\\"bench\\\": \" + json_quote(bench) + \",\\n\";",
      "if (qp * schwarz_[q] >= tolerance) ++local;",
      "for (const auto& [key, members] : buckets) {",
      "static const char* kRaw = R\"lint(volatile int x;)lint\";",
      "// p8trace record --workload=seq-scan --out=seq.p8t",
      "constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;",
      "std::size_t n = 1'000'000;",
      "#if 0",
      "#endif",
      "/* block */ int after; // trailing",
      "const char c = '\\n';",
      "double x = 0x1p-3 + 1.5e-3;",
      "}  // namespace p8::lint",
      "",
  };
  return lines;
}

TEST(LintLexerProperty, LexingNeverLosesOrFabricatesBytes) {
  const std::vector<std::string>& lines = repo_lines();
  P8_PROP(gen, 300, 0x9813a7) {
    const int count = gen.int_range(1, 24);
    std::string input;
    for (int i = 0; i < count; ++i) {
      input += lines[static_cast<std::size_t>(
          gen.range(0, lines.size() - 1))];
      input += '\n';
    }
    const std::vector<Token> tokens = lex(input);
    std::string rebuilt;
    std::size_t offset = 0;
    bool offsets_ok = true, nonempty_ok = true;
    for (const Token& t : tokens) {
      nonempty_ok = nonempty_ok && !t.text.empty();
      offsets_ok = offsets_ok && t.offset == offset;
      offset += t.text.size();
      rebuilt += t.text;
    }
    ASSERT_EQ(rebuilt, input);
    ASSERT_TRUE(offsets_ok);
    ASSERT_TRUE(nonempty_ok);
    ASSERT_EQ(offset, input.size());
  }
}

TEST(LintLexerProperty, HostileBytePrefixesNeverLoseCoverage) {
  // Truncating hostile inputs mid-token exercises every unterminated
  // path: strings, raw strings, char literals, comments, directives.
  const std::string hostile =
      "u8R\"zz(raw)zz\" L'\\'' /* c */ \"s\\\"t\" #if 0\nx\n#endif 1'2e+3";
  for (std::size_t cut = 0; cut <= hostile.size(); ++cut)
    expect_lossless(hostile.substr(0, cut));
}

// ---------------------------------------------------------------------------
// Rules, annotations, allowlist

std::vector<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

TEST(LintRules, RegistryListsExactlyTheseRulesInOrder) {
  std::vector<std::string> ids;
  for (const Rule& r : rules()) ids.push_back(r.id);
  const std::vector<std::string> expected = {
      "det-rand", "det-wall-clock", "det-unordered-iter",
      "conc-weak-atomic", "conc-volatile", "conc-detach",
      "counter-name-grammar", "counter-undocumented",
      "contract-throw-header", "contract-static-assert",
      "lint-annotation"};
  EXPECT_EQ(ids, expected);
  for (const Rule& r : rules()) {
    EXPECT_EQ(find_rule(r.id), &r);
    EXPECT_NE(std::string(r.summary), "");
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

TEST(LintRules, CounterGrammarAcceptsAndRejects) {
  for (const char* ok : {"l3.victim.hit", ".mbs", "probe.", ".", "a_b-c.d0"})
    EXPECT_TRUE(counter_literal_ok(ok)) << ok;
  for (const char* bad : {"", "L1 Hits!", "l1..hit", "Cache.hit", "a b"})
    EXPECT_FALSE(counter_literal_ok(bad)) << bad;
}

TEST(LintRules, BannedSpellingsInCommentsStringsAndDisabledAreInvisible) {
  const std::string src =
      "// std::rand() in a comment\n"
      "const char* s = \"time(nullptr) gettimeofday volatile\";\n"
      "#if 0\nstd::rand(); t.detach();\n#endif\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src, nullptr).empty());
}

TEST(LintRules, DetRandFiresOnlyInModelScope) {
  const std::string src = "int r = std::rand();\n";
  EXPECT_EQ(rule_ids(lint_source("src/sim/x.cpp", src, nullptr)),
            std::vector<std::string>{"det-rand"});
  EXPECT_TRUE(lint_source("src/la/x.cpp", src, nullptr).empty());
}

TEST(LintRules, ServeLayerIsModelScope) {
  // The p8serve daemon must answer byte-identically across runs and
  // client counts, so src/serve gets the full determinism treatment:
  // rand and wall-clock rules fire there, and its headers count as
  // hot-path headers for the contract-throw rule.
  const std::string rng = "int r = std::rand();\n";
  EXPECT_EQ(rule_ids(lint_source("src/serve/cache.cpp", rng, nullptr)),
            std::vector<std::string>{"det-rand"});
  const std::string clock = "long t = time(nullptr);\n";
  EXPECT_EQ(rule_ids(lint_source("src/serve/server.cpp", clock, nullptr)),
            std::vector<std::string>{"det-wall-clock"});
  const std::string hot = "inline int f(int i) {\n  if (i < 0) throw i;\n  return i;\n}\n";
  EXPECT_EQ(rule_ids(lint_source("src/serve/cache.hpp", hot, nullptr)),
            std::vector<std::string>{"contract-throw-header"});
  // .cpp files keep their throws: protocol errors are exceptional by
  // design, only headers are hot-path.
  EXPECT_TRUE(lint_source("src/serve/protocol.cpp", hot, nullptr).empty());
}

TEST(LintRules, ValidAnnotationSuppressesOnlyItsRuleAndLines) {
  const std::string annotated =
      "// p8lint: allow(conc-weak-atomic) stats-only counter here\n"
      "v.load(std::memory_order_relaxed);\n";
  EXPECT_TRUE(lint_source("src/common/x.cpp", annotated, nullptr).empty());
  // Two lines of separation: the annotation no longer reaches.
  const std::string far =
      "// p8lint: allow(conc-weak-atomic) stats-only counter here\n\n\n"
      "v.load(std::memory_order_relaxed);\n";
  EXPECT_EQ(rule_ids(lint_source("src/common/x.cpp", far, nullptr)),
            std::vector<std::string>{"conc-weak-atomic"});
}

TEST(LintRules, UnjustifiedAnnotationSuppressesNothingAndIsAFinding) {
  const std::string src =
      "// p8lint: allow(conc-weak-atomic)\n"
      "v.load(std::memory_order_relaxed);\n";
  const std::vector<std::string> ids =
      rule_ids(lint_source("src/common/x.cpp", src, nullptr));
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "lint-annotation"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "conc-weak-atomic"), ids.end());
}

TEST(LintAllowlist, ParsesAppliesExpiresAndDetectsStaleEntries) {
  Allowlist allow;
  const std::string text =
      "# comment\n"
      "src/a.cpp conc-volatile expires=2031-01-01 hardware register shim\n"
      "src/b.cpp conc-detach expires=2020-01-01 long since expired entry\n"
      "src/c.cpp det-rand expires=2031-01-01 never matches anything\n";
  ASSERT_EQ(parse_allowlist(text, "p8lint.allow", allow), "");
  ASSERT_EQ(allow.entries.size(), 3u);

  std::vector<Finding> findings = {
      {"src/a.cpp", 3, "conc-volatile", "m"},
      {"src/b.cpp", 7, "conc-detach", "m"},
  };
  apply_allowlist(allow, "2026-08-08", findings);
  sort_findings(findings);
  // a.cpp suppressed; b.cpp survives (expired) plus two allowlist
  // findings: the expired entry and the stale never-matching one.
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "p8lint.allow");
  EXPECT_EQ(findings[0].rule, "lint-allowlist");
  EXPECT_NE(findings[0].message.find("expired"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "lint-allowlist");
  EXPECT_NE(findings[1].message.find("stale"), std::string::npos);
  EXPECT_EQ(findings[2].file, "src/b.cpp");
  EXPECT_EQ(findings[2].rule, "conc-detach");
}

TEST(LintAllowlist, RejectsMissingJustificationAndUnknownRule) {
  Allowlist allow;
  EXPECT_NE(parse_allowlist("src/a.cpp conc-volatile expires=2031-01-01\n",
                            "f", allow),
            "");
  EXPECT_NE(parse_allowlist(
                "src/a.cpp no-such-rule expires=2031-01-01 justified here\n",
                "f", allow),
            "");
  EXPECT_NE(parse_allowlist(
                "src/a.cpp conc-volatile expires=someday justified here\n",
                "f", allow),
            "");
}

TEST(LintEngine, JsonReportQuotesAndOrdersFindings) {
  std::vector<Finding> findings = {
      {"b.cpp", 2, "det-rand", "uses \"rand\""},
      {"a.cpp", 9, "conc-volatile", "x"},
  };
  sort_findings(findings);
  const std::string json = format_json(findings);
  EXPECT_NE(json.find("\"file\": \"a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("uses \\\"rand\\\""), std::string::npos);
  EXPECT_LT(json.find("a.cpp"), json.find("b.cpp"));
}

}  // namespace
}  // namespace p8::lint
