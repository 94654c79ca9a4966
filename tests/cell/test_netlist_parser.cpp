// Syntax coverage of the structural netlist text format (cell/netlist.hpp):
// the happy path (comments, case folding, repeatable input declarations)
// and every parser-level error.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "cell/netlist.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie {
namespace {

TEST(NetlistParser, ParsesInputsAndInstances) {
  const auto desc = cell::parse_netlist(
      "# a comment line\n"
      "input(a, b)\n"
      "input(c)\n"
      "\n"
      "nand2(n1, a, b)   // cell names fold to upper case\n"
      "NOR3(out, n1, b, c);\n");
  ASSERT_EQ(desc.inputs.size(), 3u);
  EXPECT_EQ(desc.inputs[0], "a");
  EXPECT_EQ(desc.inputs[1], "b");
  EXPECT_EQ(desc.inputs[2], "c");
  ASSERT_EQ(desc.n_gates(), 2u);
  EXPECT_EQ(desc.instances[0].cell, "NAND2");
  EXPECT_EQ(desc.instances[0].output, "n1");
  EXPECT_EQ(desc.instances[0].inputs,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(desc.instances[0].line, 5);
  EXPECT_EQ(desc.instances[1].cell, "NOR3");
  EXPECT_EQ(desc.instances[1].inputs,
            (std::vector<std::string>{"n1", "b", "c"}));
}

TEST(NetlistParser, WhitespaceAndCaseAreFlexible) {
  const auto desc = cell::parse_netlist("  INPUT ( x )\n  inv( y ,x )  \n");
  ASSERT_EQ(desc.inputs.size(), 1u);
  ASSERT_EQ(desc.n_gates(), 1u);
  EXPECT_EQ(desc.instances[0].cell, "INV");
  EXPECT_EQ(desc.instances[0].output, "y");
  EXPECT_EQ(desc.instances[0].inputs, (std::vector<std::string>{"x"}));
}

TEST(NetlistParser, NetNamesAreCaseSensitive) {
  const auto desc = cell::parse_netlist("input(A, a)\nNOR2(out, A, a)\n");
  EXPECT_EQ(desc.inputs[0], "A");
  EXPECT_EQ(desc.inputs[1], "a");
}

TEST(NetlistParser, SyntaxErrorsCarryLineNumbers) {
  // Statement without parentheses.
  EXPECT_THROW(cell::parse_netlist("input(a)\nnonsense\n"), ConfigError);
  try {
    cell::parse_netlist("input(a)\nnonsense\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
  // Missing close paren.
  EXPECT_THROW(cell::parse_netlist("NOR2(out, a, b\n"), ConfigError);
  // Trailing garbage after the argument list.
  EXPECT_THROW(cell::parse_netlist("NOR2(out, a, b) extra\n"), ConfigError);
  // Bad net identifier.
  EXPECT_THROW(cell::parse_netlist("NOR2(out, 2x, b)\n"), ConfigError);
  // Empty argument.
  EXPECT_THROW(cell::parse_netlist("NOR2(out, , b)\n"), ConfigError);
  EXPECT_THROW(cell::parse_netlist("NOR2(out, a,)\n"), ConfigError);
  // Instance with no output net.
  EXPECT_THROW(cell::parse_netlist("NOR2()\n"), ConfigError);
  // input() with no nets.
  EXPECT_THROW(cell::parse_netlist("input()\n"), ConfigError);
  // Primary input declared twice.
  EXPECT_THROW(cell::parse_netlist("input(a)\ninput(a)\n"), ConfigError);
}

// Expect a ConfigError whose message carries both the 1-based line number
// and a diagnostic fragment.
void expect_error_at(const std::string& text, int line,
                     const std::string& fragment) {
  try {
    cell::parse_netlist(text);
    FAIL() << "expected ConfigError for: " << text;
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":" + std::to_string(line) + ":"), std::string::npos)
        << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(NetlistParser, DuplicateInputDeclarationsAreLineNumberedErrors) {
  // Across statements: the error names the re-declared net and the line of
  // the second declaration.
  expect_error_at("input(a)\ninput(b)\ninput(a)\n", 3, "\"a\" declared twice");
  // Within one statement.
  expect_error_at("input(a, b, a)\n", 1, "\"a\" declared twice");
}

TEST(NetlistParser, ParsesOutputDeclarations) {
  const auto desc = cell::parse_netlist(
      "input(a, b)\n"
      "output(y)\n"
      "NAND2(y, a, b)\n"
      "output(z)\n"
      "INV(z, y)\n");
  EXPECT_EQ(desc.outputs, (std::vector<std::string>{"y", "z"}));
  expect_error_at("output(y)\noutput(y)\n", 2, "\"y\" declared twice");
  expect_error_at("output()\n", 1, "at least one net");
}

TEST(NetlistParser, ParsesWireStatements) {
  const auto desc = cell::parse_netlist(
      "input(a)\n"
      "WIRE(aw, a, r=12e3, c=2.5e-15)\n"
      "wire(aw2, aw, r=1e3, c=1e-16, sections=4, rdrive=5e3, cload=2e-16, "
      "tdrive=25e-12, vdd=0.9)\n");
  ASSERT_EQ(desc.n_wires(), 2u);
  EXPECT_EQ(desc.wires[0].output, "aw");
  EXPECT_EQ(desc.wires[0].input, "a");
  EXPECT_EQ(desc.wires[0].r_total, 12e3);
  EXPECT_EQ(desc.wires[0].c_total, 2.5e-15);
  EXPECT_EQ(desc.wires[0].sections, 8);  // default
  EXPECT_EQ(desc.wires[0].r_drive, 0.0);
  EXPECT_EQ(desc.wires[0].line, 2);
  EXPECT_EQ(desc.wires[1].sections, 4);
  EXPECT_EQ(desc.wires[1].r_drive, 5e3);
  EXPECT_EQ(desc.wires[1].c_load, 2e-16);
  EXPECT_EQ(desc.wires[1].t_drive, 25e-12);
  EXPECT_EQ(desc.wires[1].vdd, 0.9);
}

TEST(NetlistParser, MalformedWireArgumentListsAreDiagnosed) {
  // Missing required parameters.
  expect_error_at("input(a)\nWIRE(w, a)\n", 2, "requires both r= and c=");
  expect_error_at("input(a)\nWIRE(w, a, r=1e3)\n", 2,
                  "requires both r= and c=");
  // Fewer than two nets.
  expect_error_at("WIRE(w)\n", 1, "needs two nets");
  expect_error_at("WIRE(r=1e3, w)\n", 1, "expected a net name");
  // A third positional net where parameters belong.
  expect_error_at("input(a, b)\nWIRE(w, a, b)\n", 2,
                  "key=value parameters");
  // Unknown key, duplicate key, malformed value, empty value.
  expect_error_at("input(a)\nWIRE(w, a, r=1e3, c=1e-15, bogus=1)\n", 2,
                  "unknown WIRE parameter \"bogus\"");
  expect_error_at("input(a)\nWIRE(w, a, r=1e3, r=2e3, c=1e-15)\n", 2,
                  "given twice");
  expect_error_at("input(a)\nWIRE(w, a, r=5x3, c=1e-15)\n", 2, "r");
  expect_error_at("input(a)\nWIRE(w, a, r=, c=1e-15)\n", 2,
                  "needs a value");
  // sections must parse as an integer.
  expect_error_at("input(a)\nWIRE(w, a, r=1e3, c=1e-15, sections=x)\n", 2,
                  "sections");
}

TEST(NetlistParser, AssignmentsOutsideWireStatementsAreDiagnosed) {
  // key=value arguments are a WIRE-only construct; cells and declarations
  // must reject them with the offending assignment spelled out.
  expect_error_at("input(a, b)\nNAND2(y, a, b, r=1e3)\n", 2,
                  "parameter assignment \"r=1e3\"");
  expect_error_at("input(a=1)\n", 1, "parameter assignment");
  expect_error_at("output(y=2)\n", 1, "parameter assignment");
}

TEST(NetlistParser, SemicolonOnlyAsTrailer) {
  EXPECT_NO_THROW(cell::parse_netlist("input(a); \nINV(y, a) ;\n"));
  EXPECT_THROW(cell::parse_netlist("INV(y, a); INV(z, y)\n"), ConfigError);
}

TEST(NetlistParser, ReadsFilesAndPrefixesErrorsWithThePath) {
  EXPECT_THROW(cell::read_netlist_file("/nonexistent/file.net"),
               ConfigError);

  const std::string path =
      ::testing::TempDir() + "netlist_parser_roundtrip.net";
  {
    std::ofstream out(path);
    out << "input(a, b)\nNAND2(y, a, b)\n";
  }
  const auto desc = cell::read_netlist_file(path);
  EXPECT_EQ(desc.n_gates(), 1u);

  {
    std::ofstream out(path);
    out << "input(a)\nbroken line\n";
  }
  try {
    cell::read_netlist_file(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(NetlistParser, FileErrorsCarryAContiguousPathLinePrefix) {
  // Regression: the path and line number must form one clickable
  // `path:line:` token at the start of the message, not a path somewhere
  // and a line number somewhere else.
  const std::string path = ::testing::TempDir() + "netlist_parser_prefix.net";
  {
    std::ofstream out(path);
    out << "input(a)\nNOR2(out, a,)\n";
  }
  try {
    cell::read_netlist_file(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find(path + ":2:"), 0u) << what;
  }
  std::remove(path.c_str());

  // In-memory parses default to a "netlist" source name with the same
  // contiguous shape.
  try {
    cell::parse_netlist("input(a)\nNOR2(out, a,)\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).find("netlist:2:"), 0u) << e.what();
  }
}

TEST(NetlistParser, TruncatedFileReadIsADiagnosedSyntaxError) {
  // A read that comes back cut off (simulated via the injection site in
  // util::read_text_file) must surface as an ordinary path:line syntax
  // error, never as a crash or a silently half-parsed netlist.
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();

  const std::string path = ::testing::TempDir() + "netlist_parser_trunc.net";
  {
    std::ofstream out(path);
    out << "input(a)\nNOR2(out, a, a)\n";
  }
  EXPECT_EQ(cell::read_netlist_file(path).n_gates(), 1u);

  util::FaultInjector::arm(
      "io.read_text_file",
      {util::FaultInjector::Action::kTruncateText, 0, -1});
  try {
    cell::read_netlist_file(path);
    FAIL() << "expected ConfigError from the truncated statement";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).find(path + ":"), 0u) << e.what();
  }
  std::remove(path.c_str());
}

// The tokenizer edge cases of the fuzz seed corpus (tests/fuzz/netlist),
// pinned here so the corpus replay is not their only check: each edge_*
// seed must normalize to the given canonical text, and each err_* seed
// must fail with exactly the given message.
std::string fuzz_seed(const std::string& name) {
  return util::read_text_file(std::string(CHARLIE_SOURCE_DIR) +
                              "/tests/fuzz/netlist/" + name);
}

TEST(NetlistParser, FuzzEdgeSeedsNormalize) {
  const std::pair<const char*, const char*> cases[] = {
      {"edge_crlf.net",
       "input(a, b)\noutput(y)\nNAND2(n1, a, b)\nINV(y, n1)\n"},
      {"edge_comments_mid_statement.net",
       "input(a, b)\noutput(y, z)\nNOR2(n1, a, b)\nNAND2(y, n1, a)\n"
       "INV(z, y)\n"},
      {"edge_tabs.net",
       "input(a, b)\noutput(yw)\nNOR2(y, a, b)\n"
       "WIRE(yw, y, r=12000, c=2.5e-15, sections=8, "
       "vdd=0.80000000000000004)\n"},
      {"edge_semicolon_tail.net",
       "input(a, b)\noutput(y, yw)\nNAND2(y, a, b)\n"
       "WIRE(yw, y, r=1000, c=1.0000000000000001e-15, sections=8, "
       "vdd=0.80000000000000004)\n"},
      {"edge_mixed_case_keywords.net",
       "input(a, b)\noutput(yw)\nNAND2(y, a, b)\n"
       "WIRE(yw, y, r=1000, c=1.0000000000000001e-15, sections=4, "
       "rdrive=10, cload=9.9999999999999998e-17, "
       "tdrive=4.9999999999999997e-12, vdd=0.80000000000000004)\n"},
  };
  for (const auto& [name, canonical] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(cell::write_netlist(cell::parse_netlist(fuzz_seed(name))),
              canonical);
  }
}

TEST(NetlistParser, FuzzErrorSeedsKeepTheirMessages) {
  const std::pair<const char*, const char*> cases[] = {
      {"err_empty_cell.net", "2: instance needs an output net: INV(...)"},
      {"err_no_open_paren.net",
       "2: expected `cell(out, in, ...)`, got \"INV y a\""},
      {"err_bad_cell_name.net", "2: bad cell name \"1INV\""},
      {"err_missing_close_paren.net", "2: missing `)`"},
      {"err_trailing_text.net", "2: trailing text after `)`: \"extra\""},
      {"err_bad_parameter_name.net", "2: bad parameter name \"1r\""},
      {"err_parameter_needs_value.net", "2: parameter \"r\" needs a value"},
      {"err_bad_net_name.net", "2: bad net name \"a-b\""},
      {"err_assignment_as_net.net",
       "2: expected a net name, got parameter assignment \"a=1\""},
      {"err_wire_needs_two_nets.net",
       "2: WIRE needs two nets: WIRE(out, in, r=.., c=..)"},
      {"err_wire_net_after_params.net",
       "2: WIRE takes key=value parameters after the two nets, got net "
       "name \"b\""},
      {"err_wire_param_twice.net", "2: WIRE parameter \"r\" given twice"},
      {"err_wire_unknown_param.net",
       "2: unknown WIRE parameter \"length\" (expected r, c, sections, "
       "rdrive, cload, tdrive, vdd)"},
      {"err_wire_malformed_number.net",
       "2: WIRE parameter r: malformed number: \"1k\""},
      {"err_wire_number_out_of_range.net",
       "2: WIRE parameter r: number out of range: \"1e999\""},
      {"err_wire_non_finite_number.net",
       "2: WIRE parameter c: non-finite number: \"inf\""},
      {"err_wire_malformed_integer.net",
       "2: WIRE parameter sections: malformed integer: \"8.5\""},
      {"err_wire_integer_out_of_range.net",
       "2: WIRE parameter sections: integer out of range: "
       "\"99999999999999999999\""},
      {"err_wire_missing_c.net", "2: WIRE requires both r= and c= parameters"},
      {"err_input_empty.net", "1: input() needs at least one net name"},
      {"err_input_twice.net", "2: primary input \"b\" declared twice"},
      {"err_output_empty.net", "2: output() needs at least one net name"},
      {"err_output_twice.net", "3: primary output \"a\" declared twice"},
  };
  for (const auto& [name, message] : cases) {
    SCOPED_TRACE(name);
    try {
      cell::parse_netlist(fuzz_seed(name), "seed");
      ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), std::string("seed:") + message);
    }
  }
}

}  // namespace
}  // namespace charlie
