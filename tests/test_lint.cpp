/**
 * @file
 * Drives tools/bayes_lint.py from ctest (`-L static`):
 *
 *  1. the fixture self-test — every rule must fire exactly on the
 *     seeded violations under tests/lint_fixtures/ and nowhere else,
 *     and justified waivers must suppress;
 *  2. a clean run over the real repo;
 *  3. the R004 drift proof — removing a catalogue row from a copy of
 *     docs/observability.md must fail the lint (acceptance criterion:
 *     the metric catalogue cannot silently diverge from src/).
 *
 * Paths come in via compile definitions (BAYES_LINT_SCRIPT,
 * BAYES_REPO_ROOT, BAYES_PYTHON) so the test works from any build dir.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CommandResult
{
    int status = -1;
    std::string output;
};

/** Run a shell command, capturing stdout+stderr and the exit status. */
CommandResult
run(const std::string& cmd)
{
    CommandResult r;
    FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe))
        r.output += buf;
    const int rc = ::pclose(pipe);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

std::string
lintCmd(const std::string& args)
{
    return std::string(BAYES_PYTHON) + " " + BAYES_LINT_SCRIPT + " " + args;
}

const std::string kRoot = BAYES_REPO_ROOT;

} // namespace

TEST(Lint, FixtureSelfTestFiresEveryRuleExactlyWhereSeeded)
{
    const auto r = run(
        lintCmd("--self-test " + kRoot + "/tests/lint_fixtures/repo"));
    EXPECT_EQ(r.status, 0) << r.output;
    // The fixture set covers every text rule, including waiver hygiene
    // and the cross-cutting passes (layering, guarded-by, clocks).
    for (const char* rule :
         {"R000", "R001", "R002", "R003", "R004", "R005", "R007", "R009",
          "R010", "R011", "R012", "R013"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "fixture run never mentions " << rule << "\n"
            << r.output;
    }
}

TEST(Lint, ListRulesPrintsTheCatalogue)
{
    const auto r = run(lintCmd("--list-rules"));
    EXPECT_EQ(r.status, 0) << r.output;
    // Every rule id appears with a one-line summary (id, two spaces,
    // text) — the same catalogue docs/static-analysis.md tabulates.
    for (const char* rule : {"R000", "R006", "R010", "R011", "R012"})
        EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
    std::istringstream lines(r.output);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_GE(line.size(), 7u) << line;
        EXPECT_EQ(line[0], 'R') << line;
        EXPECT_EQ(line.substr(4, 2), "  ") << line;
        EXPECT_NE(line[6], ' ') << line;
    }
}

TEST(Lint, RepeatableRuleFlagSelectsExactlyThoseRules)
{
    const auto r = run(
        lintCmd("--root " + kRoot + "/tests/lint_fixtures/repo"
                " --rule R005 --rule R012"));
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("R005"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("R012"), std::string::npos) << r.output;
    // Rules not selected stay silent even though their fixtures are
    // seeded with violations.
    EXPECT_EQ(r.output.find("R002"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("R010"), std::string::npos) << r.output;
}

TEST(Lint, UnknownRuleIdIsAUsageError)
{
    const auto r = run(lintCmd("--root " + kRoot + " --rule R999"));
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("R999"), std::string::npos) << r.output;
}

TEST(Lint, RealRepoIsClean)
{
    const auto r = run(lintCmd("--root " + kRoot));
    EXPECT_EQ(r.status, 0) << r.output;
}

TEST(Lint, FindingsAreClickableFileLineRule)
{
    const auto r = run(
        lintCmd("--root " + kRoot + "/tests/lint_fixtures/repo"));
    EXPECT_EQ(r.status, 1) << "seeded fixture violations must fail the lint";
    // Every finding line is `path:line: RNNN message`.
    std::istringstream lines(r.output);
    std::string line;
    int findings = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("bayes-lint:", 0) == 0)
            continue; // summary line
        ++findings;
        const auto colon = line.find(':');
        ASSERT_NE(colon, std::string::npos) << line;
        const auto colon2 = line.find(':', colon + 1);
        ASSERT_NE(colon2, std::string::npos) << line;
        EXPECT_GT(std::atoi(line.c_str() + colon + 1), 0) << line;
        EXPECT_EQ(line[colon2 + 2], 'R') << line;
    }
    EXPECT_GE(findings, 10) << r.output;
}

TEST(Lint, R004CatalogueDriftFailsBothWays)
{
    // Copy the real catalogue, drop the first metric row, and lint the
    // real repo against the doctored doc: the removed row's metric is
    // still emitted from src/, so the lint must fail with R004.
    std::ifstream in(kRoot + "/docs/observability.md");
    ASSERT_TRUE(in.good());
    std::ostringstream doctored;
    std::string line;
    std::string removed;
    bool dropped = false;
    while (std::getline(in, line)) {
        if (!dropped && line.rfind("| `", 0) == 0) {
            removed = line.substr(3, line.find('`', 3) - 3);
            dropped = true;
            continue;
        }
        doctored << line << '\n';
    }
    ASSERT_TRUE(dropped) << "catalogue has no metric rows?";

    const std::string tmp =
        ::testing::TempDir() + "/observability_doctored.md";
    {
        std::ofstream out(tmp);
        out << doctored.str();
    }
    const auto r = run(lintCmd("--root " + kRoot + " --rules R004 --obs-doc "
                               + tmp));
    EXPECT_EQ(r.status, 1)
        << "removing catalogue row for '" << removed
        << "' must fail the lint\n" << r.output;
    EXPECT_NE(r.output.find("R004"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(removed), std::string::npos) << r.output;
}

TEST(Lint, R010ManifestDriftFailsBothWays)
{
    // Copy the real architecture doc and doctor the layer manifest:
    // grant `obs` a dependency on `serve` that no code exercises. The
    // stale edge must fail the lint against the real repo — the
    // manifest cannot silently drift from the include graph.
    std::ifstream in(kRoot + "/docs/architecture.md");
    ASSERT_TRUE(in.good());
    std::ostringstream doctored;
    std::string line;
    bool doped = false;
    while (std::getline(in, line)) {
        if (!doped && line == "obs:") {
            doctored << "obs: serve\n";
            doped = true;
            continue;
        }
        doctored << line << '\n';
    }
    ASSERT_TRUE(doped) << "architecture.md has no `obs:` manifest line?";

    const std::string tmp =
        ::testing::TempDir() + "/architecture_doctored.md";
    {
        std::ofstream out(tmp);
        out << doctored.str();
    }
    const auto r = run(lintCmd("--root " + kRoot + " --rules R010 "
                               "--arch-doc " + tmp));
    EXPECT_EQ(r.status, 1)
        << "a stale manifest edge must fail the lint\n" << r.output;
    EXPECT_NE(r.output.find("R010"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("stale manifest edge"), std::string::npos)
        << r.output;
}

TEST(Lint, R004RenamedCounterInSrcFailsAgainstRealCatalogue)
{
    // The other drift direction, driven from a synthetic tree: a src
    // metric literal that is not in the catalogue fails the lint.
    const std::string root = ::testing::TempDir() + "/lint_rename";
    ASSERT_EQ(std::system(("rm -rf " + root + " && mkdir -p " + root
                           + "/src " + root + "/docs")
                              .c_str()),
              0);
    {
        std::ofstream src(root + "/src/emitter.cpp");
        src << "void emit(Registry& r) { "
               "r.counter(\"sampler.grad_evals_renamed\").add(1); }\n";
        std::ifstream doc(kRoot + "/docs/observability.md");
        std::ofstream out(root + "/docs/observability.md");
        out << doc.rdbuf();
    }
    const auto r = run(lintCmd("--root " + root + " --rules R004"));
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("sampler.grad_evals_renamed"), std::string::npos)
        << r.output;
}
