/** @file Tests for the trainable MiniGoogLeNet. */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "models/mini_googlenet.hh"
#include "nn/serialize.hh"

namespace redeye {
namespace models {
namespace {

TEST(MiniGoogLeNetTest, OutputShape)
{
    Rng rng(1);
    auto net = buildMiniGoogLeNet(10, rng);
    EXPECT_EQ(net->outputShape(), Shape(1, 10, 1, 1));
}

TEST(MiniGoogLeNetTest, InceptionChannels)
{
    Rng rng(2);
    auto net = buildMiniGoogLeNet(10, rng);
    EXPECT_EQ(net->nodeShape("inception_a/output").c, 88u);
    EXPECT_EQ(net->nodeShape("inception_b/output").c, 128u);
}

TEST(MiniGoogLeNetTest, WeightsInitialized)
{
    Rng rng(3);
    auto net = buildMiniGoogLeNet(10, rng);
    // He init: every weight tensor (n = outputs > 1) is nonzero;
    // bias vectors (n == 1) start at zero.
    for (Tensor *p : net->params()) {
        if (p->shape().n > 1) {
            EXPECT_GT(p->absMax(), 0.0f);
        }
    }
}

TEST(MiniGoogLeNetTest, ForwardRuns)
{
    Rng rng(4);
    auto net = buildMiniGoogLeNet(10, rng);
    Tensor x(Shape(2, 3, kMiniInputSize, kMiniInputSize));
    x.fillUniform(rng, 0.0f, 1.0f);
    const Tensor &y = net->forward(x);
    EXPECT_EQ(y.shape(), Shape(2, 10, 1, 1));
    EXPECT_TRUE(std::isfinite(y.sum()));
}

TEST(MiniGoogLeNetTailTest, MatchesFullNetFromEveryCut)
{
    Rng rng(11);
    auto full = buildMiniGoogLeNet(10, rng);
    Rng xr(12);
    Tensor x(Shape(1, 3, kMiniInputSize, kMiniInputSize));
    x.fillUniform(xr, 0.0f, 1.0f);
    const Tensor logits = full->forward(x);

    for (unsigned depth = 1; depth <= 5; ++depth) {
        const auto analog = miniGoogLeNetAnalogLayers(depth);
        const Shape cut = full->nodeShape(analog.back());

        Rng tail_init(13);
        auto tail = buildMiniGoogLeNetTail(depth, 10, cut, tail_init);
        nn::copyWeightsByName(*tail, *full);

        // Feeding the full net's activation at the cut into the tail
        // must reproduce the full net's logits exactly: same layer
        // names, same copied weights, same arithmetic.
        const Tensor &features = full->activation(analog.back());
        const Tensor &y = tail->forward(features);
        ASSERT_EQ(y.shape(), logits.shape()) << "depth " << depth;
        EXPECT_EQ(maxAbsDiff(y, logits), 0.0f) << "depth " << depth;
    }
}

TEST(MiniGoogLeNetTailTest, DepthFiveTailIsClassifierOnly)
{
    Rng rng(14);
    auto full = buildMiniGoogLeNet(10, rng);
    const auto analog = miniGoogLeNetAnalogLayers(5);
    const Shape cut = full->nodeShape(analog.back());
    Rng tail_init(15);
    auto tail = buildMiniGoogLeNetTail(5, 10, cut, tail_init);
    // Only the inner-product classifier remains on the host.
    EXPECT_EQ(tail->outputShape(), Shape(1, 10, 1, 1));
    EXPECT_LT(tail->totalMacs(), full->totalMacs() / 10);
}

TEST(MiniGoogLeNetTest, DeterministicGivenSeed)
{
    Rng ra(7), rb(7);
    auto a = buildMiniGoogLeNet(10, ra);
    auto b = buildMiniGoogLeNet(10, rb);
    auto pa = a->params();
    auto pb = b->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(maxAbsDiff(*pa[i], *pb[i]), 0.0f);
}

TEST(MiniGoogLeNetTest, DepthCutsNestAndExist)
{
    Rng rng(5);
    auto net = buildMiniGoogLeNet(10, rng);
    for (unsigned d = 1; d <= 5; ++d) {
        const auto layers = miniGoogLeNetAnalogLayers(d);
        for (const auto &name : layers)
            EXPECT_TRUE(net->hasLayer(name)) << name;
        if (d > 1) {
            EXPECT_GT(layers.size(),
                      miniGoogLeNetAnalogLayers(d - 1).size());
        }
    }
}

TEST(MiniGoogLeNetTest, SmallEnoughToTrainQuickly)
{
    Rng rng(6);
    auto net = buildMiniGoogLeNet(10, rng);
    EXPECT_LT(net->parameterCount(), 200u * 1000);
    EXPECT_LT(net->totalMacs(), 20u * 1000 * 1000);
}

} // namespace
} // namespace models
} // namespace redeye
