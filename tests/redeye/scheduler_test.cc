/** @file Tests for the cyclic pipeline scheduler. */

#include <gtest/gtest.h>

#include "models/googlenet.hh"
#include "redeye/compiler.hh"
#include "redeye/energy_model.hh"
#include "redeye/scheduler.hh"

namespace redeye {
namespace arch {
namespace {

Program
depthProgram(unsigned depth, const RedEyeConfig &cfg)
{
    auto net = models::buildGoogLeNet(227);
    return compile(*net, models::googLeNetAnalogLayers(depth), cfg);
}

TEST(SchedulerTest, OneStagePerInstruction)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(1, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    EXPECT_EQ(sched.stages.size(), prog.size());
}

TEST(SchedulerTest, ConvolutionsOpenRounds)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(2, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    // Depth2 has 3 conv engagements (conv1, conv2_reduce, conv2):
    // 3 cyclic rounds.
    EXPECT_EQ(sched.cycles, 3u);
    // pool1 shares conv1's round.
    for (const auto &s : sched.stages) {
        if (s.layer == "pool1/3x3_s2") {
            EXPECT_EQ(s.cycle, 0u);
        }
        if (s.layer == "conv2/3x3_reduce") {
            EXPECT_EQ(s.cycle, 1u);
        }
    }
}

TEST(SchedulerTest, PipelinedLatencyAtMostSerialSum)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(3, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    double serial = 0.0;
    for (const auto &s : sched.stages)
        serial += s.spanS;
    EXPECT_LE(sched.frameLatencyS, serial + 1e-12);
    EXPECT_GT(sched.frameLatencyS, 0.0);
}

TEST(SchedulerTest, LatencyDominatedByConvRounds)
{
    // Pooling and quantization hide behind convolution spans.
    RedEyeConfig cfg;
    const auto prog = depthProgram(2, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    double conv_spans = 0.0;
    for (const auto &s : sched.stages) {
        if (s.kind == ModuleKind::Convolution)
            conv_spans += s.spanS;
    }
    EXPECT_NEAR(sched.frameLatencyS, conv_spans,
                0.05 * sched.frameLatencyS);
}

TEST(SchedulerTest, Depth5SustainsThirtyFps)
{
    // Figure 7b: the Depth5 pipeline sustains ~30 fps. Row-level
    // pipelining hides the pool/readout stages, so the schedule is
    // at least as fast as the serialized estimate (32 ms).
    RedEyeConfig cfg;
    const auto prog = depthProgram(5, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    RedEyeModel model(prog, cfg);
    EXPECT_LE(sched.frameLatencyS,
              model.estimateFrame().analogTimeS + 1e-9);
    EXPECT_TRUE(sched.sustains(30.0));
}

TEST(SchedulerTest, BottleneckIsALargeConvolution)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(5, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    // conv2/3x3 carries the largest single-stage span (359 MMACs
    // over 57 columns-rounds).
    EXPECT_EQ(sched.bottleneckLayer, "conv2/3x3");
    EXPECT_GT(sched.bottleneckSpanS, 0.0);
}

TEST(SchedulerTest, UtilizationInUnitRange)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(4, cfg);
    const auto sched = scheduleProgram(prog, cfg);
    EXPECT_GT(sched.convUtilization, 0.5);
    EXPECT_LE(sched.convUtilization, 1.0 + 1e-9);
}

TEST(SchedulerTest, HigherSnrSlowsPipeline)
{
    RedEyeConfig lo;
    lo.convSnrDb = 40.0;
    RedEyeConfig hi;
    hi.convSnrDb = 55.0;
    const auto s_lo = scheduleProgram(depthProgram(2, lo), lo);
    const auto s_hi = scheduleProgram(depthProgram(2, hi), hi);
    EXPECT_GT(s_hi.frameLatencyS, s_lo.frameLatencyS * 5.0);
}

TEST(SchedulerTest, EmptyProgramFatal)
{
    RedEyeConfig cfg;
    EXPECT_EXIT(scheduleProgram(Program{}, cfg),
                ::testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(flowPlan(Program{}), ::testing::ExitedWithCode(1),
                "empty");
}

TEST(FlowPlanTest, Depth1SingleRoundWithBothModules)
{
    RedEyeConfig cfg;
    const auto plan = flowPlan(depthProgram(1, cfg));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].convLayer, "conv1/7x7_s2");
    EXPECT_FALSE(plan[0].convBypassed);
    EXPECT_EQ(plan[0].poolLayer, "pool1/3x3_s2");
    EXPECT_FALSE(plan[0].poolBypassed);
    EXPECT_FALSE(plan[0].cyclicReturn);
    EXPECT_TRUE(plan[0].quantizeDrain);
}

TEST(FlowPlanTest, Depth2BypassesUnusedPoolModules)
{
    // conv2 rounds have no pooling layer: the bypass flow control
    // circumvents the module.
    RedEyeConfig cfg;
    const auto plan = flowPlan(depthProgram(2, cfg));
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_FALSE(plan[0].poolBypassed); // pool1
    EXPECT_TRUE(plan[1].poolBypassed);  // conv2/3x3_reduce round
    EXPECT_TRUE(plan[2].poolBypassed);  // conv2/3x3 round
    // All but the last round return through the storage module.
    EXPECT_TRUE(plan[0].cyclicReturn);
    EXPECT_TRUE(plan[1].cyclicReturn);
    EXPECT_FALSE(plan[2].cyclicReturn);
    EXPECT_TRUE(plan[2].quantizeDrain);
}

TEST(FlowPlanTest, EveryConvGetsARound)
{
    RedEyeConfig cfg;
    const auto prog = depthProgram(5, cfg);
    const auto plan = flowPlan(prog);
    std::size_t convs = 0;
    for (const auto &r : plan)
        convs += r.convBypassed ? 0 : 1;
    EXPECT_EQ(convs, prog.convolutionCount());
    // Exactly one drain, on the final round.
    for (std::size_t i = 0; i < plan.size(); ++i)
        EXPECT_EQ(plan[i].quantizeDrain, i + 1 == plan.size());
}

TEST(FlowPlanTest, ListingMentionsBypasses)
{
    RedEyeConfig cfg;
    const auto text = flowPlanStr(flowPlan(depthProgram(2, cfg)));
    EXPECT_NE(text.find("(bypass)"), std::string::npos);
    EXPECT_NE(text.find("-> storage (cyclic)"), std::string::npos);
    EXPECT_NE(text.find("-> quantization"), std::string::npos);
}

} // namespace
} // namespace arch
} // namespace redeye
