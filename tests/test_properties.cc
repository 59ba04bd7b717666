/**
 * @file
 * Property-based (parameterized) tests: invariants that must hold
 * across sweeps of patterns and configurations rather than for one
 * hand-picked case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "sim/predictor_sim.hh"
#include "test_util.hh"
#include "util/rng.hh"
#include "workloads/composer.hh"

namespace clap
{
namespace
{

// ---------------------------------------------------------------------
// Property: CAP learns ANY repeating pattern of distinct addresses,
// whatever its period, as long as it fits the link table.
// ---------------------------------------------------------------------

class PeriodicPatternProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PeriodicPatternProperty, CapLearnsPatternPerfectly)
{
    const unsigned period = GetParam();
    Rng rng(1000 + period);
    std::vector<std::uint64_t> pattern;
    std::set<std::uint64_t> used;
    while (pattern.size() < period) {
        const std::uint64_t addr =
            0x10000000 + (rng.below(1 << 20) & ~15ull);
        if (used.insert(addr).second)
            pattern.push_back(addr);
    }
    CapPredictor pred{CapPredictorConfig{}};
    const auto addrs = test::repeatPattern(pattern, 40);
    const auto result =
        test::drive(pred, addrs, test::testPc, 0, 10 * period);
    // Never a misprediction; long patterns may lose a few
    // speculations to LT index collisions, where the tag filter
    // correctly suppresses the access instead of mispredicting.
    // (Each collision also shadows the next couple of accesses while
    // the confidence counter rebuilds, so long patterns lose several
    // speculations per colliding position.)
    EXPECT_EQ(result.specWrong, 0u) << "period " << period;
    EXPECT_GE(result.spec, 10u * period * 6 / 10)
        << "period " << period;
    if (period <= 32)
        EXPECT_EQ(result.spec, 10u * period) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodicPatternProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 12, 16,
                                           24, 32, 48, 64));

// ---------------------------------------------------------------------
// Property: the stride predictor is perfect on any constant stride.
// ---------------------------------------------------------------------

class StrideProperty : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(StrideProperty, StridePredictorPerfectInSteadyState)
{
    const std::int64_t stride = GetParam();
    StridePredictor pred{StridePredictorConfig{}};
    std::vector<std::uint64_t> addrs;
    std::uint64_t addr = 0x40000000;
    for (int i = 0; i < 100; ++i) {
        addrs.push_back(addr);
        addr += static_cast<std::uint64_t>(stride);
    }
    const auto result = test::drive(pred, addrs, test::testPc, 0, 80);
    EXPECT_EQ(result.specWrong, 0u) << "stride " << stride;
    EXPECT_EQ(result.spec, 80u) << "stride " << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideProperty,
                         ::testing::Values(0, 1, 4, 8, 12, 64, 256,
                                           4096, -4, -8, -256));

// ---------------------------------------------------------------------
// Property: across a sweep of configurations, the predictors never
// violate their structural invariants, behave deterministically, and
// keep their statistics consistent.
// ---------------------------------------------------------------------

struct FuzzConfig
{
    unsigned tagBits;
    unsigned pathBits;
    unsigned pfBits;
    unsigned pfTableBits;
    unsigned historyLength;
    unsigned ltAssoc;
    bool globalCorrelation;
    bool perPath;
    bool pipelined;
    unsigned gapCycles;
};

/**
 * Print a config by its fields, the three flags as one bit string
 * (globalCorrelation, perPath, pipelined). Without this gtest dumps
 * the raw struct bytes, padding included, so the ctest names would
 * change between builds.
 */
void
PrintTo(const FuzzConfig &c, std::ostream *os)
{
    *os << "tag" << c.tagBits << " path" << c.pathBits << " pf"
        << c.pfBits << " pft" << c.pfTableBits << " hist"
        << c.historyLength << " ways" << c.ltAssoc << " flags"
        << c.globalCorrelation << c.perPath << c.pipelined << " gap"
        << c.gapCycles;
}

class ConfigFuzzProperty : public ::testing::TestWithParam<FuzzConfig>
{
};

Trace
fuzzTrace()
{
    TraceSpec spec;
    spec.name = "fuzz";
    spec.suite = "X";
    spec.seed = 4242;
    spec.kernels.push_back(
        {LinkedListKernel::Params{
             .numNodes = 10, .numDataFields = 2, .mutateProb = 0.05},
         1.0, 2});
    spec.kernels.push_back(
        {StrideArrayKernel::Params{
             .numArrays = 1, .numElems = 128, .chunk = 32},
         1.0, 1});
    spec.kernels.push_back(
        {RandomPointerKernel::Params{.loadsPerStep = 8}, 0.6, 1});
    spec.kernels.push_back(
        {GlobalScalarKernel::Params{.numGlobals = 4}, 0.8, 1});
    return generateTrace(spec, 20000);
}

PredictionStats
runFuzz(const FuzzConfig &fuzz, const Trace &trace)
{
    HybridConfig config;
    config.cap.ltEntries = 256;
    config.cap.ltTagBits = fuzz.tagBits;
    config.cap.pathBits = fuzz.pathBits;
    config.cap.pfBits = fuzz.pfBits;
    config.cap.pfTableBits = fuzz.pfTableBits;
    config.cap.historyLength = fuzz.historyLength;
    config.cap.ltAssoc = fuzz.ltAssoc;
    config.cap.globalCorrelation = fuzz.globalCorrelation;
    config.cap.perPathConfidence = fuzz.perPath;
    config.pipelined = fuzz.pipelined;
    config.lb.entries = 256;
    HybridPredictor pred(config);
    PredictorSimConfig sim;
    sim.gapCycles = fuzz.gapCycles;
    return runPredictorSim(trace, pred, sim);
}

TEST_P(ConfigFuzzProperty, InvariantsAndDeterminism)
{
    const FuzzConfig &fuzz = GetParam();
    const Trace trace = fuzzTrace();

    const PredictionStats a = runFuzz(fuzz, trace);
    // Structural invariants.
    EXPECT_GT(a.loads, 0u);
    EXPECT_LE(a.spec, a.loads);
    EXPECT_LE(a.specCorrect, a.spec);
    EXPECT_LE(a.formedCorrect, a.formed);
    EXPECT_LE(a.formed, a.lbHits);
    EXPECT_LE(a.bothSpec, a.spec);
    EXPECT_LE(a.missSelections, a.bothSpec);
    EXPECT_GE(a.accuracy(), 0.0);
    EXPECT_LE(a.accuracy(), 1.0);

    // Determinism: a second identical run gives identical counters.
    const PredictionStats b = runFuzz(fuzz, trace);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.specCorrect, b.specCorrect);
    EXPECT_EQ(a.missSelections, b.missSelections);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigFuzzProperty,
    ::testing::Values(
        FuzzConfig{8, 4, 4, 0, 4, 1, true, false, false, 0},
        FuzzConfig{0, 0, 0, 0, 1, 1, false, false, false, 0},
        FuzzConfig{4, 2, 2, 0, 2, 1, true, false, false, 0},
        FuzzConfig{8, 4, 4, 12, 4, 1, true, false, false, 0},
        FuzzConfig{8, 4, 4, 0, 4, 2, true, true, false, 0},
        FuzzConfig{8, 4, 4, 0, 6, 4, true, false, false, 0},
        FuzzConfig{8, 4, 4, 0, 4, 1, true, false, true, 4},
        FuzzConfig{8, 4, 4, 0, 4, 1, true, false, true, 12},
        FuzzConfig{0, 0, 0, 0, 12, 1, false, false, true, 8},
        FuzzConfig{4, 1, 6, 14, 3, 2, true, true, true, 8}));

// ---------------------------------------------------------------------
// Property: any speculation implies a formed address, and the
// speculated address equals one of the component addresses.
// ---------------------------------------------------------------------

TEST(PredictionInvariants, SpeculateImpliesConsistentFields)
{
    const Trace trace = fuzzTrace();
    HybridPredictor pred{HybridConfig{}};
    std::uint64_t ghr = 0;
    for (const auto &rec : trace.records()) {
        if (rec.isBranch()) {
            ghr = (ghr << 1) | (rec.taken ? 1 : 0);
            continue;
        }
        if (!rec.isLoad())
            continue;
        LoadInfo info;
        info.pc = rec.pc;
        info.immOffset = rec.immOffset;
        info.ghr = ghr;
        const Prediction p = pred.predict(info);
        if (p.speculate) {
            ASSERT_TRUE(p.hasAddress);
            ASSERT_NE(p.component, Component::None);
            ASSERT_TRUE(p.addr == p.capAddr || p.addr == p.strideAddr);
        }
        if (p.capSpec)
            ASSERT_TRUE(p.capHasAddr);
        if (p.strideSpec)
            ASSERT_TRUE(p.strideHasAddr);
        pred.update(info, rec.effAddr, p);
    }
}

// ---------------------------------------------------------------------
// Property: increasing the prediction gap never increases the number
// of correct speculative accesses (information only gets staler).
// ---------------------------------------------------------------------

class GapMonotonicityProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GapMonotonicityProperty, CorrectPredictionsDoNotIncrease)
{
    const Trace trace = fuzzTrace();

    HybridConfig imm_cfg;
    HybridPredictor imm(imm_cfg);
    const auto imm_stats = runPredictorSim(trace, imm, {});

    HybridConfig gap_cfg;
    gap_cfg.pipelined = true;
    HybridPredictor gapped(gap_cfg);
    PredictorSimConfig sim;
    sim.gapCycles = GetParam();
    const auto gap_stats = runPredictorSim(trace, gapped, sim);

    EXPECT_LE(gap_stats.correctOfAllLoads(),
              imm_stats.correctOfAllLoads() + 0.02)
        << "gap " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapMonotonicityProperty,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------
// Property: the hybrid covers (nearly) the union of its components'
// correct predictions on mixed workloads.
// ---------------------------------------------------------------------

class HybridCoverageProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HybridCoverageProperty, HybridAtLeastBestComponent)
{
    TraceSpec spec;
    spec.name = "cover";
    spec.suite = "X";
    spec.seed = GetParam();
    spec.kernels.push_back(
        {LinkedListKernel::Params{.numNodes = 12, .numDataFields = 2},
         1.0, 1});
    spec.kernels.push_back(
        {StrideArrayKernel::Params{
             .numArrays = 2, .numElems = 256, .chunk = 32},
         1.0, 1});
    spec.kernels.push_back(
        {GlobalScalarKernel::Params{.numGlobals = 6}, 1.0, 1});
    const Trace trace = generateTrace(spec, 30000);

    StridePredictor stride{StridePredictorConfig{}};
    const double stride_correct =
        runPredictorSim(trace, stride).correctOfAllLoads();
    CapPredictor cap{CapPredictorConfig{}};
    const double cap_correct =
        runPredictorSim(trace, cap).correctOfAllLoads();
    HybridPredictor hybrid{HybridConfig{}};
    const double hybrid_correct =
        runPredictorSim(trace, hybrid).correctOfAllLoads();

    EXPECT_GE(hybrid_correct,
              std::max(stride_correct, cap_correct) - 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridCoverageProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

} // namespace
} // namespace clap
