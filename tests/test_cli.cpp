// Unit tests for the dependency-free CLI argument parser used by the
// ssp_* tools.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cli.hpp"

namespace ssp::cli {
namespace {

/// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Cli, ParsesKeyValuePairs) {
  Argv a({"prog", "--in", "file.mtx", "--sigma2", "50"});
  ArgParser p("prog", "test");
  p.option("in", "input").option("sigma2", "target");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_EQ(p.get("in", ""), "file.mtx");
  EXPECT_DOUBLE_EQ(p.get_double("sigma2", 0.0), 50.0);
}

TEST(Cli, ParsesEqualsForm) {
  Argv a({"prog", "--sigma2=123.5", "--name=x"});
  ArgParser p("prog", "test");
  p.option("sigma2", "target").option("name", "name");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_DOUBLE_EQ(p.get_double("sigma2", 0.0), 123.5);
  EXPECT_EQ(p.get("name", ""), "x");
}

TEST(Cli, BooleanFlags) {
  Argv a({"prog", "--verbose", "--out", "o.mtx"});
  ArgParser p("prog", "test");
  p.flag("verbose", "flag").flag("quiet", "flag").option("out", "output");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_TRUE(p.get_bool("verbose", false));
  EXPECT_FALSE(p.get_bool("quiet", false));
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_FALSE(p.has("quiet"));
}

TEST(Cli, TrailingFlagIsBoolean) {
  Argv a({"prog", "--check"});
  ArgParser p("prog", "test");
  p.flag("check", "flag");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_TRUE(p.get_bool("check", false));
}

TEST(Cli, ValueOptionWithoutItsValueIsRejected) {
  // `--out --sigma2 50` used to read --out as the boolean "true" and write
  // a file named `true`.
  const auto error_of = [](std::vector<std::string> argv) -> std::string {
    Argv a(std::move(argv));
    ArgParser p("prog", "test");
    p.option("in", "input").option("out", "output");
    add_sparsify_options(p);
    try {
      (void)p.parse(a.argc(), a.argv());
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of({"prog", "--in", "g.mtx", "--out", "--sigma2", "50"}),
            "option --out expects a value");
  EXPECT_EQ(error_of({"prog", "--in", "g.mtx", "--out"}),
            "option --out expects a value");
  EXPECT_EQ(error_of({"prog", "--sigma2", "--seed", "7"}),
            "option --sigma2 expects a value");
  EXPECT_EQ(error_of({"prog", "--out=o.mtx", "--sigma2", "50"}), "");

  // Through the tool scaffold: exit code 1, and the body never runs.
  Argv a({"prog", "--in", "gen:grid2d:16x16:7", "--out", "--sigma2", "50"});
  ArgParser p("prog", "test");
  p.option("in", "input").option("out", "output");
  add_sparsify_options(p);
  bool ran = false;
  EXPECT_EQ(run_tool(p, a.argc(), a.argv(), [&] {
              ran = true;
              return 0;
            }),
            1);
  EXPECT_FALSE(ran);
}

TEST(Cli, FlagsAcceptEveryToolForm) {
  // Bare, before another option, last, and `=value`; a flag never takes
  // the next token as its value.
  Argv a({"prog", "--warm-refine", "--rescale=false", "--sigma2", "50",
          "--estimate-quality"});
  ArgParser p("prog", "test");
  add_sparsify_options(p);
  add_scale_options(p);
  add_dynamic_options(p);
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_TRUE(p.get_bool("warm-refine", false));
  EXPECT_FALSE(p.get_bool("rescale", true));
  EXPECT_TRUE(p.get_bool("estimate-quality", false));
  EXPECT_DOUBLE_EQ(p.get_double("sigma2", 0.0), 50.0);
  EXPECT_TRUE(p.positional().empty());

  Argv b({"prog", "--warm-refine=maybe"});
  ArgParser q("prog", "test");
  add_dynamic_options(q);
  ASSERT_TRUE(q.parse(b.argc(), b.argv()));
  EXPECT_THROW((void)q.get_bool("warm-refine", false), std::invalid_argument);
}

TEST(Cli, ToolsRejectAValueGivenToAFlag) {
  // `--warm-refine false` leaves "false" as a stray positional token; no
  // tool takes positionals, so the scaffold refuses instead of silently
  // turning warm refine on.
  Argv a({"prog", "--warm-refine", "false"});
  ArgParser p("prog", "test");
  add_dynamic_options(p);
  bool ran = false;
  EXPECT_EQ(run_tool(p, a.argc(), a.argv(), [&] {
              ran = true;
              return 0;
            }),
            1);
  EXPECT_FALSE(ran);
}

TEST(Cli, OptionalValueTakesTheNextTokenUnlessItIsAnOption) {
  ArgParser p("prog", "test");
  p.option("progress", "telemetry", "", Arity::kOptional)
      .option("sigma2", "target");
  Argv a({"prog", "--progress", "stages", "--sigma2", "5"});
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_EQ(p.get("progress", ""), "stages");

  ArgParser q("prog", "test");
  q.option("progress", "telemetry", "", Arity::kOptional)
      .option("sigma2", "target");
  Argv b({"prog", "--progress", "--sigma2", "5"});
  ASSERT_TRUE(q.parse(b.argc(), b.argv()));
  EXPECT_TRUE(q.has("progress"));
  EXPECT_EQ(q.get("progress", ""), "true");
  EXPECT_DOUBLE_EQ(q.get_double("sigma2", 0.0), 5.0);
}

TEST(Cli, HelpReturnsFalse) {
  Argv a({"prog", "--help"});
  ArgParser p("prog", "test");
  EXPECT_FALSE(p.parse(a.argc(), a.argv()));
  Argv b({"prog", "-h"});
  ArgParser q("prog", "test");
  EXPECT_FALSE(q.parse(b.argc(), b.argv()));
}

TEST(Cli, RequireThrowsWhenMissing) {
  Argv a({"prog"});
  ArgParser p("prog", "test");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)p.require("in"), std::invalid_argument);
}

TEST(Cli, TypedGettersValidate) {
  Argv a({"prog", "--n", "abc"});
  ArgParser p("prog", "test");
  p.option("n", "count");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)p.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("n", 0.0), std::invalid_argument);
  EXPECT_EQ(p.get_int("missing", 7), 7);
}

TEST(Cli, PositionalArguments) {
  Argv a({"prog", "input.mtx", "--k", "3", "extra"});
  ArgParser p("prog", "test");
  p.option("k", "count");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.mtx");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(Cli, RejectsUnregisteredOptionsNamingThem) {
  // A misspelled flag must not silently fall back to its default:
  // `--sigma 50` (for --sigma2) used to run σ² = 100 and exit 0.
  const auto error_of = [](std::vector<std::string> argv) -> std::string {
    Argv a(std::move(argv));
    ArgParser p("prog", "test");
    add_sparsify_options(p);
    add_scale_options(p);
    try {
      (void)p.parse(a.argc(), a.argv());
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of({"prog", "--definitely-bogus", "3", "--sigma2", "50"}),
            "unknown option --definitely-bogus");
  EXPECT_EQ(error_of({"prog", "--sigma2", "50", "--sigma", "50"}),
            "unknown option --sigma");
  EXPECT_EQ(error_of({"prog", "--bogus=1"}), "unknown option --bogus");
  EXPECT_EQ(error_of({"prog", "--sigma2", "50", "--bogus"}),
            "unknown option --bogus");
  EXPECT_EQ(error_of({"prog", "--sigma2=50", "--seed", "7"}), "");
  // The engine's fill guard picks the inner solver and its AMG tolerance,
  // and the filter cut pass runs with the block options, so no flag sets
  // them.
  EXPECT_EQ(error_of({"prog", "--inner-solver", "amg"}),
            "unknown option --inner-solver");
  EXPECT_EQ(error_of({"prog", "--solver-tolerance", "1e-3"}),
            "unknown option --solver-tolerance");
  EXPECT_EQ(error_of({"prog", "--cut-sigma2", "5"}),
            "unknown option --cut-sigma2");

  // Through the tool scaffold: exit code 1, and the body never runs.
  Argv a({"prog", "--definitely-bogus", "3", "--sigma", "50"});
  ArgParser p("prog", "test");
  add_sparsify_options(p);
  bool ran = false;
  EXPECT_EQ(run_tool(p, a.argc(), a.argv(), [&] {
              ran = true;
              return 0;
            }),
            1);
  EXPECT_FALSE(ran);
}

TEST(Cli, ServeOptionsDefaultsAndOverrides) {
  {
    Argv a({"prog"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    const serve::ServerConfig config = serve_config_from(p, DynamicOptions{});
    EXPECT_EQ(config.socket_path, "ssp_serve.sock");
    EXPECT_EQ(config.tcp_port, -1);  // unix socket is the default transport
    EXPECT_EQ(config.max_clients, 64);
    EXPECT_EQ(config.max_line_bytes, 65536u);
    EXPECT_EQ(config.serve.max_sessions, 64);
    EXPECT_EQ(config.serve.max_queued_batches, 8);
    EXPECT_DOUBLE_EQ(config.serve.drain_seconds, 5.0);
  }
  {
    Argv a({"prog", "--socket", "/tmp/s.sock", "--max-sessions", "4",
            "--max-queue", "2", "--max-clients", "8", "--max-line-bytes",
            "256", "--drain-timeout", "0.5"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    const serve::ServerConfig config = serve_config_from(p, DynamicOptions{});
    EXPECT_EQ(config.socket_path, "/tmp/s.sock");
    EXPECT_EQ(config.max_clients, 8);
    EXPECT_EQ(config.max_line_bytes, 256u);
    EXPECT_EQ(config.serve.max_sessions, 4);
    EXPECT_EQ(config.serve.max_queued_batches, 2);
    EXPECT_DOUBLE_EQ(config.serve.drain_seconds, 0.5);
  }
}

TEST(Cli, ServeTcpFlagForms) {
  {
    // `--tcp <port>` binds that loopback port.
    Argv a({"prog", "--tcp", "7077"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(serve_config_from(p, DynamicOptions{}).tcp_port, 7077);
  }
  {
    // Bare `--tcp` means "any ephemeral port".
    Argv a({"prog", "--tcp"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(serve_config_from(p, DynamicOptions{}).tcp_port, 0);
  }
}

TEST(Cli, ServeOptionsRejectOutOfRangeValues) {
  const auto config_of = [](std::vector<std::string> argv) {
    Argv a(std::move(argv));
    ArgParser p("prog", "test");
    add_serve_options(p);
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    return serve_config_from(p, DynamicOptions{});
  };
  EXPECT_THROW((void)config_of({"prog", "--tcp", "70000"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--socket="}), std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-sessions", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-queue", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-clients", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-line-bytes", "4"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--drain-timeout", "-1"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-sessions", "lots"}),
               std::invalid_argument);
}

TEST(Cli, UsageListsOptions) {
  ArgParser p("prog", "does things");
  p.option("in", "input file").option("sigma2", "target", "100");
  const std::string u = p.usage();
  EXPECT_NE(u.find("--in"), std::string::npos);
  EXPECT_NE(u.find("default: 100"), std::string::npos);
  EXPECT_NE(u.find("does things"), std::string::npos);
}

}  // namespace
}  // namespace ssp::cli
