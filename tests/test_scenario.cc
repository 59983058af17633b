/**
 * @file
 * Scenario DSL parser suite (DESIGN.md §15): valid specs, `base`
 * inheritance, hard parse errors with line numbers, every field's
 * clamp rule, canonical round-trips, and a golden spec file pinned
 * byte for byte.
 *
 * Also covers the pure load-shape functions the parser feeds:
 * offered_rate_rps envelope arithmetic, Zipf skew, and the per-class
 * request mixes.
 *
 * Regenerate the golden serialization after an INTENTIONAL format
 * change with:
 *   PRUDENCE_UPDATE_GOLDEN=1 ./tests/test_scenario
 * then review the golden diff like any other code change.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/loadgen.h"
#include "workload/scenario.h"

namespace prudence {
namespace {

ScenarioParseResult
parse_ok(const std::string& text)
{
    ScenarioParseResult r = parse_scenario(text);
    EXPECT_TRUE(r.ok) << r.error << "\nfor input:\n" << text;
    return r;
}

void
expect_error(const std::string& text, int line,
             const std::string& needle)
{
    ScenarioParseResult r = parse_scenario(text);
    EXPECT_FALSE(r.ok) << "expected a parse error for:\n" << text;
    const std::string prefix = "line " + std::to_string(line) + ":";
    EXPECT_EQ(r.error.rfind(prefix, 0), 0u)
        << "error `" << r.error << "` should start with `" << prefix
        << "`";
    EXPECT_NE(r.error.find(needle), std::string::npos)
        << "error `" << r.error << "` should mention `" << needle
        << "`";
}

// ---------------------------------------------------------------
// Valid input and defaults
// ---------------------------------------------------------------

TEST(ScenarioParse, EmptyInputYieldsDefaults)
{
    ScenarioParseResult r = parse_ok("");
    EXPECT_TRUE(r.clamped.empty());
    EXPECT_EQ(r.spec, ScenarioSpec{});
}

TEST(ScenarioParse, CommentsBlanksAndWhitespaceAreTolerated)
{
    ScenarioParseResult r = parse_ok(
        "# a full-line comment\n"
        "\n"
        "   rate_rps =  1234.5   # trailing comment\n"
        "\tshards\t=\t8\n"
        "name=spacey  \n");
    EXPECT_DOUBLE_EQ(r.spec.rate_rps, 1234.5);
    EXPECT_EQ(r.spec.shards, 8u);
    EXPECT_EQ(r.spec.name, "spacey");
    EXPECT_TRUE(r.clamped.empty());
}

TEST(ScenarioParse, EveryFieldParses)
{
    ScenarioParseResult r = parse_ok(
        "name = full-spec_1.0\n"
        "arrival = uniform\n"
        "rate_rps = 2500\n"
        "burst_factor = 4\n"
        "burst_period_ms = 100\n"
        "burst_len_ms = 10\n"
        "diurnal_period_ms = 500\n"
        "diurnal_amplitude = 0.25\n"
        "duration_ms = 750\n"
        "shards = 3\n"
        "connections = 17\n"
        "keys = 333\n"
        "zipf_s = 1.25\n"
        "read_pct = 50\n"
        "update_pct = 30\n"
        "alloc_heavy_shards = 1\n"
        "defer_heavy_shards = 1\n"
        "object_bytes = 256\n"
        "request_bytes = 64\n"
        "seed = 0xdeadbeef\n");
    EXPECT_TRUE(r.clamped.empty());
    const ScenarioSpec& s = r.spec;
    EXPECT_EQ(s.name, "full-spec_1.0");
    EXPECT_EQ(s.arrival, ArrivalKind::kUniform);
    EXPECT_DOUBLE_EQ(s.rate_rps, 2500.0);
    EXPECT_DOUBLE_EQ(s.burst_factor, 4.0);
    EXPECT_EQ(s.burst_period_ms, 100u);
    EXPECT_EQ(s.burst_len_ms, 10u);
    EXPECT_EQ(s.diurnal_period_ms, 500u);
    EXPECT_DOUBLE_EQ(s.diurnal_amplitude, 0.25);
    EXPECT_EQ(s.duration_ms, 750u);
    EXPECT_EQ(s.shards, 3u);
    EXPECT_EQ(s.connections, 17u);
    EXPECT_EQ(s.keys, 333u);
    EXPECT_DOUBLE_EQ(s.zipf_s, 1.25);
    EXPECT_EQ(s.read_pct, 50u);
    EXPECT_EQ(s.update_pct, 30u);
    EXPECT_EQ(s.alloc_heavy_shards, 1u);
    EXPECT_EQ(s.defer_heavy_shards, 1u);
    EXPECT_EQ(s.object_bytes, 256u);
    EXPECT_EQ(s.request_bytes, 64u);
    EXPECT_EQ(s.seed, 0xdeadbeefULL);
}

TEST(ScenarioParse, StockScenariosLoadAndAreAlreadyClamped)
{
    std::vector<std::string> names = stock_scenario_names();
    ASSERT_EQ(names.size(), 3u);
    for (const std::string& name : names) {
        ScenarioSpec s;
        ASSERT_TRUE(stock_scenario(name, s)) << name;
        EXPECT_EQ(s.name, name);
        // A stock spec must survive clamping untouched.
        std::vector<std::string> notes;
        ScenarioSpec clamped = s;
        clamp_scenario(clamped, &notes);
        EXPECT_TRUE(notes.empty())
            << name << ": " << (notes.empty() ? "" : notes.front());
        EXPECT_EQ(clamped, s) << name;
    }
    ScenarioSpec s;
    EXPECT_FALSE(stock_scenario("no-such-scenario", s));
}

// ---------------------------------------------------------------
// `base =` inheritance
// ---------------------------------------------------------------

TEST(ScenarioParse, BaseInheritsStockDefaults)
{
    ScenarioSpec burst;
    ASSERT_TRUE(stock_scenario("burst", burst));

    ScenarioParseResult r = parse_ok(
        "base = burst\n"
        "name = burst_hotter\n"
        "zipf_s = 1.4\n");
    // Overridden fields take the new values...
    EXPECT_EQ(r.spec.name, "burst_hotter");
    EXPECT_DOUBLE_EQ(r.spec.zipf_s, 1.4);
    // ...every other field keeps the stock value.
    ScenarioSpec expect = burst;
    expect.name = "burst_hotter";
    expect.zipf_s = 1.4;
    EXPECT_EQ(r.spec, expect);
}

TEST(ScenarioParse, BaseMustPrecedeEveryOtherField)
{
    expect_error("rate_rps = 100\nbase = burst\n", 2,
                 "`base` must precede");
}

TEST(ScenarioParse, UnknownBaseIsAnError)
{
    expect_error("base = rushhour\n", 1, "unknown base scenario");
}

TEST(ScenarioParse, CommentsBeforeBaseAreFine)
{
    ScenarioParseResult r = parse_ok(
        "# pick a foundation\n"
        "\n"
        "base = churn\n");
    EXPECT_EQ(r.spec.name, "churn");
    EXPECT_EQ(r.spec.alloc_heavy_shards, 2u);
}

// ---------------------------------------------------------------
// Hard errors, each with its line number
// ---------------------------------------------------------------

TEST(ScenarioParse, MalformedLineWithoutEquals)
{
    expect_error("rate_rps 100\n", 1, "expected `key = value`");
    expect_error("# fine\nshards = 2\njunk\n", 3,
                 "expected `key = value`");
}

TEST(ScenarioParse, MissingKeyOrValue)
{
    expect_error("= 100\n", 1, "missing key");
    expect_error("rate_rps =\n", 1, "missing value");
    expect_error("rate_rps = # only a comment\n", 1, "missing value");
}

TEST(ScenarioParse, UnknownKey)
{
    expect_error("rate = 100\n", 1, "unknown key `rate`");
}

TEST(ScenarioParse, MalformedNumbers)
{
    // Double-typed field.
    expect_error("rate_rps = fast\n", 1,
                 "invalid number for `rate_rps`");
    expect_error("zipf_s = 1.2.3\n", 1, "invalid number for `zipf_s`");
    // Integer-typed field: trailing junk and unit suffixes are
    // errors, not silently truncated prefixes.
    expect_error("duration_ms = 2s\n", 1,
                 "invalid number for `duration_ms`");
    expect_error("shards = four\n", 1, "invalid number for `shards`");
    // Seed is unsigned: a sign is malformed, not a wraparound.
    expect_error("seed = -1\n", 1, "invalid number for `seed`");
}

TEST(ScenarioParse, InvalidNameAndArrival)
{
    expect_error("name = has space\n", 1, "invalid name");
    expect_error("name = semi;colon\n", 1, "invalid name");
    expect_error("arrival = bursty\n", 1, "unknown arrival kind");
}

// ---------------------------------------------------------------
// Clamp rules: one case per field bound
// ---------------------------------------------------------------

struct ClampCase
{
    const char* line;    ///< single assignment driving the clamp
    const char* field;   ///< field named in the note
    double expect_from;  ///< value as given
    double expect_to;    ///< value after clamping
};

// Printed into the discovered test name; the default would dump raw
// bytes, the two pointers included.
void
PrintTo(const ClampCase& c, std::ostream* os)
{
    *os << c.field << ": " << c.expect_from << " clamped to "
        << c.expect_to;
}

/// "<field>_low" when the clamp raised the value, "<field>_high" when
/// it lowered it.
std::string
clamp_case_name(const ::testing::TestParamInfo<ClampCase>& info)
{
    const ClampCase& c = info.param;
    return std::string(c.field) +
           (c.expect_to > c.expect_from ? "_low" : "_high");
}

class ScenarioClamp : public ::testing::TestWithParam<ClampCase>
{};

TEST_P(ScenarioClamp, NotesAndAppliesTheBound)
{
    const ClampCase& c = GetParam();
    ScenarioParseResult r = parse_ok(c.line);
    ASSERT_FALSE(r.clamped.empty()) << c.line;
    std::ostringstream want;
    want << c.field << ": " << c.expect_from << " clamped to "
         << c.expect_to;
    bool found = false;
    for (const std::string& note : r.clamped)
        found = found || note == want.str();
    EXPECT_TRUE(found) << "no note `" << want.str() << "` for `"
                       << c.line << "`; got: " << r.clamped.front();
}

INSTANTIATE_TEST_SUITE_P(
    EveryFieldBound, ScenarioClamp,
    ::testing::Values(
        ClampCase{"rate_rps = 0.5\n", "rate_rps", 0.5, 1},
        ClampCase{"rate_rps = 1e9\n", "rate_rps", 1e9, 5e7},
        ClampCase{"burst_factor = 0.25\n", "burst_factor", 0.25, 1},
        ClampCase{"burst_factor = 4096\n", "burst_factor", 4096,
                  1000},
        ClampCase{"burst_period_ms = 4000000\n", "burst_period_ms",
                  4000000, 3600000},
        ClampCase{"diurnal_period_ms = 100000000\n",
                  "diurnal_period_ms", 100000000, 86400000},
        ClampCase{"diurnal_amplitude = 1.5\n", "diurnal_amplitude",
                  1.5, 1},
        ClampCase{"diurnal_amplitude = -0.5\n", "diurnal_amplitude",
                  -0.5, 0},
        ClampCase{"duration_ms = 0\n", "duration_ms", 0, 1},
        ClampCase{"duration_ms = 100000000\n", "duration_ms",
                  100000000, 86400000},
        ClampCase{"shards = 0\n", "shards", 0, 1},
        ClampCase{"shards = 300\n", "shards", 300, 256},
        ClampCase{"connections = 0\n", "connections", 0, 1},
        ClampCase{"connections = 70000\n", "connections", 70000,
                  65536},
        ClampCase{"keys = 0\n", "keys", 0, 1},
        ClampCase{"keys = 2000000\n", "keys", 2000000, 1048576},
        ClampCase{"zipf_s = 9\n", "zipf_s", 9, 8},
        ClampCase{"zipf_s = -1\n", "zipf_s", -1, 0},
        ClampCase{"read_pct = 150\n", "read_pct", 150, 100},
        ClampCase{"object_bytes = 8\n", "object_bytes", 8, 16},
        ClampCase{"object_bytes = 10000\n", "object_bytes", 10000,
                  4096},
        ClampCase{"request_bytes = 8\n", "request_bytes", 8, 16},
        ClampCase{"request_bytes = 10000\n", "request_bytes", 10000,
                  4096}),
    clamp_case_name);

TEST(ScenarioClampRules, BurstLenIsBoundedByBurstPeriod)
{
    ScenarioParseResult r = parse_ok(
        "burst_period_ms = 100\n"
        "burst_len_ms = 250\n");
    EXPECT_EQ(r.spec.burst_period_ms, 100u);
    EXPECT_EQ(r.spec.burst_len_ms, 100u);
    ASSERT_EQ(r.clamped.size(), 1u);
    EXPECT_EQ(r.clamped[0], "burst_len_ms: 250 clamped to 100");
}

TEST(ScenarioClampRules, UpdatePctIsBoundedByRemainderAfterReads)
{
    ScenarioParseResult r = parse_ok(
        "read_pct = 70\n"
        "update_pct = 50\n");
    EXPECT_EQ(r.spec.read_pct, 70u);
    EXPECT_EQ(r.spec.update_pct, 30u);
    ASSERT_EQ(r.clamped.size(), 1u);
    EXPECT_EQ(r.clamped[0], "update_pct: 50 clamped to 30");
}

TEST(ScenarioClampRules, ChurnShardsAreBoundedBySplit)
{
    ScenarioParseResult r = parse_ok(
        "shards = 4\n"
        "alloc_heavy_shards = 3\n"
        "defer_heavy_shards = 3\n");
    EXPECT_EQ(r.spec.alloc_heavy_shards, 3u);
    // Only one shard remains after the alloc-heavy claim.
    EXPECT_EQ(r.spec.defer_heavy_shards, 1u);
    ASSERT_EQ(r.clamped.size(), 1u);
    EXPECT_EQ(r.clamped[0], "defer_heavy_shards: 3 clamped to 1");
}

TEST(ScenarioClampRules, NegativeIntegersClampToZeroThenFloor)
{
    // A negative integer notes the sign clamp first, then any
    // nonzero floor (shards >= 1) notes a second clamp.
    ScenarioParseResult r = parse_ok("shards = -3\n");
    EXPECT_EQ(r.spec.shards, 1u);
    ASSERT_EQ(r.clamped.size(), 2u);
    EXPECT_EQ(r.clamped[0], "shards: -3 clamped to 0");
    EXPECT_EQ(r.clamped[1], "shards: 0 clamped to 1");

    // Zero-floored fields note only the sign clamp.
    ScenarioParseResult r2 = parse_ok("burst_period_ms = -5\n");
    EXPECT_EQ(r2.spec.burst_period_ms, 0u);
    ASSERT_EQ(r2.clamped.size(), 1u);
    EXPECT_EQ(r2.clamped[0], "burst_period_ms: -5 clamped to 0");
}

TEST(ScenarioClampRules, ClampScenarioIsIdempotent)
{
    ScenarioSpec s;
    s.rate_rps = 1e12;
    s.shards = 999;
    s.read_pct = 90;
    s.update_pct = 90;
    s.burst_period_ms = 10;
    s.burst_len_ms = 99;
    clamp_scenario(s);
    ScenarioSpec once = s;
    std::vector<std::string> notes;
    clamp_scenario(s, &notes);
    EXPECT_TRUE(notes.empty())
        << "second clamp still changed: " << notes.front();
    EXPECT_EQ(s, once);
}

// ---------------------------------------------------------------
// Round-trips and the golden spec file
// ---------------------------------------------------------------

TEST(ScenarioRoundTrip, StockScenariosSurviveSerializeParse)
{
    for (const std::string& name : stock_scenario_names()) {
        ScenarioSpec s;
        ASSERT_TRUE(stock_scenario(name, s));
        ScenarioParseResult r = parse_ok(scenario_to_text(s));
        EXPECT_TRUE(r.clamped.empty()) << name;
        EXPECT_EQ(r.spec, s) << name;
    }
}

TEST(ScenarioRoundTrip, CustomSpecSurvivesSerializeParse)
{
    ScenarioSpec s;
    s.name = "rt.check-1";
    s.arrival = ArrivalKind::kUniform;
    s.rate_rps = 12345.678;
    s.burst_factor = 2.5;
    s.burst_period_ms = 77;
    s.burst_len_ms = 11;
    s.diurnal_period_ms = 901;
    s.diurnal_amplitude = 0.125;
    s.duration_ms = 4321;
    s.shards = 9;
    s.connections = 1000;
    s.keys = 54321;
    s.zipf_s = 0.99;
    s.read_pct = 33;
    s.update_pct = 44;
    s.alloc_heavy_shards = 4;
    s.defer_heavy_shards = 2;
    s.object_bytes = 48;
    s.request_bytes = 4096;
    s.seed = 0xfeedfacecafeULL;
    clamp_scenario(s);

    ScenarioParseResult r = parse_ok(scenario_to_text(s));
    EXPECT_TRUE(r.clamped.empty());
    EXPECT_EQ(r.spec, s);
    // Canonical text is a fixed point.
    EXPECT_EQ(scenario_to_text(r.spec), scenario_to_text(s));
}

std::string
golden_path(const char* file)
{
    return std::string(PRUDENCE_TEST_GOLDEN_DIR) + "/" + file;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ScenarioGolden, BurstHotSpecPinnedByteForByte)
{
    const std::string input =
        read_file(golden_path("burst_hot.scenario"));
    ASSERT_FALSE(input.empty())
        << "missing golden input " << golden_path("burst_hot.scenario");

    ScenarioParseResult r = parse_ok(input);
    EXPECT_TRUE(r.clamped.empty());
    const std::string canonical = scenario_to_text(r.spec);

    const std::string path = golden_path("burst_hot.golden.scenario");
    if (std::getenv("PRUDENCE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << canonical;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }
    const std::string want = read_file(path);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << path
        << " (generate with PRUDENCE_UPDATE_GOLDEN=1)";
    EXPECT_EQ(canonical, want)
        << "canonical serialization diverged from " << path
        << "; if the change is intentional, regenerate with "
           "PRUDENCE_UPDATE_GOLDEN=1";

    // And the canonical text re-parses to the identical spec.
    ScenarioParseResult again = parse_ok(canonical);
    EXPECT_EQ(again.spec, r.spec);
}

// ---------------------------------------------------------------
// Shard classes and mixes
// ---------------------------------------------------------------

TEST(ScenarioShards, ChurnSplitAssignsClassesInOrder)
{
    ScenarioSpec s;
    ASSERT_TRUE(stock_scenario("churn", s));
    ASSERT_EQ(s.shards, 6u);
    EXPECT_EQ(s.shard_class(0), ShardClass::kAllocHeavy);
    EXPECT_EQ(s.shard_class(1), ShardClass::kAllocHeavy);
    EXPECT_EQ(s.shard_class(2), ShardClass::kDeferHeavy);
    EXPECT_EQ(s.shard_class(3), ShardClass::kDeferHeavy);
    EXPECT_EQ(s.shard_class(4), ShardClass::kNormal);
    EXPECT_EQ(s.shard_class(5), ShardClass::kNormal);
}

TEST(ScenarioShards, MixesFollowTheClassTable)
{
    ScenarioSpec s;
    s.read_pct = 55;
    s.update_pct = 25;
    ShardMix normal = shard_mix(s, ShardClass::kNormal);
    EXPECT_EQ(normal.read_pct, 55u);
    EXPECT_EQ(normal.update_pct, 25u);

    ShardMix ah = shard_mix(s, ShardClass::kAllocHeavy);
    ShardMix dh = shard_mix(s, ShardClass::kDeferHeavy);
    // Alloc-heavy shards churn scratch pairs; defer-heavy shards pin
    // a high update (defer-free) share.
    EXPECT_GT(ah.scratch_pairs, normal.scratch_pairs);
    EXPECT_GT(dh.update_pct, normal.update_pct);
    EXPECT_LE(ah.read_pct + ah.update_pct, 100u);
    EXPECT_LE(dh.read_pct + dh.update_pct, 100u);
}

// ---------------------------------------------------------------
// Load-shape functions fed by the spec
// ---------------------------------------------------------------

TEST(ScenarioRate, FlatSpecIsFlat)
{
    ScenarioSpec s;
    s.rate_rps = 5000;
    for (std::uint64_t t : {0ull, 1'000'000ull, 999'000'000ull})
        EXPECT_DOUBLE_EQ(offered_rate_rps(s, t), 5000.0);
}

TEST(ScenarioRate, BurstWindowMultipliesTheRate)
{
    ScenarioSpec s;
    s.rate_rps = 1000;
    s.burst_factor = 8;
    s.burst_period_ms = 200;
    s.burst_len_ms = 25;
    // Inside the window (t mod 200ms < 25ms) the rate is 8x...
    EXPECT_DOUBLE_EQ(offered_rate_rps(s, 0), 8000.0);
    EXPECT_DOUBLE_EQ(offered_rate_rps(s, 24'000'000), 8000.0);
    EXPECT_DOUBLE_EQ(offered_rate_rps(s, 224'000'000), 8000.0);
    // ...and outside it the base rate applies.
    EXPECT_DOUBLE_EQ(offered_rate_rps(s, 25'000'000), 1000.0);
    EXPECT_DOUBLE_EQ(offered_rate_rps(s, 199'000'000), 1000.0);
}

TEST(ScenarioRate, DiurnalRampSwingsAroundTheMean)
{
    ScenarioSpec s;
    s.rate_rps = 1000;
    s.diurnal_period_ms = 1000;
    s.diurnal_amplitude = 0.5;
    // sin(0) = 0 at the start of the period...
    EXPECT_NEAR(offered_rate_rps(s, 0), 1000.0, 1e-6);
    // ...peak at a quarter period, trough at three quarters.
    EXPECT_NEAR(offered_rate_rps(s, 250'000'000), 1500.0, 1e-6);
    EXPECT_NEAR(offered_rate_rps(s, 750'000'000), 500.0, 1e-6);
}

TEST(ScenarioRate, EnvelopeNeverReachesZero)
{
    ScenarioSpec s;
    s.rate_rps = 1;  // clamp floor
    s.diurnal_period_ms = 1000;
    s.diurnal_amplitude = 1.0;  // swings through zero
    clamp_scenario(s);
    for (std::uint64_t t = 0; t < 1'000'000'000ull; t += 50'000'000)
        EXPECT_GT(offered_rate_rps(s, t), 0.0) << t;
}

TEST(ScenarioZipf, UniformAndSkewedSampling)
{
    ZipfSampler uniform(100, 0.0);
    EXPECT_EQ(uniform.n(), 100u);
    EXPECT_EQ(uniform.sample(0.0), 0u);
    EXPECT_EQ(uniform.sample(0.999), 99u);
    EXPECT_EQ(uniform.sample(0.505), 50u);

    // A strong skew concentrates most of the mass on the first keys.
    ZipfSampler zipf(1000, 1.2);
    EXPECT_EQ(zipf.sample(0.0), 0u);
    EXPECT_LT(zipf.sample(0.5), 10u);
    // The CDF still covers the whole domain.
    EXPECT_LT(zipf.sample(0.9999999), 1000u);
    // Monotone in the deviate.
    std::uint32_t prev = 0;
    for (double u = 0.0; u < 1.0; u += 0.01) {
        std::uint32_t k = zipf.sample(u);
        EXPECT_GE(k, prev) << u;
        prev = k;
    }
}

}  // namespace
}  // namespace prudence
