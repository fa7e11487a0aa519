#include "core/rng.hh"

#include <cmath>

namespace redeye {

namespace detail {

Ziggurat
Ziggurat::build()
{
    Ziggurat z;
    auto density = [](double v) { return std::exp(-0.5 * v * v); };
    z.f[1] = density(kR);
    z.x[0] = kV / z.f[1];
    z.f[0] = 0.0; // the bottom layer starts at y = 0
    z.x[1] = kR;
    // Equal areas: x[i] * (f(x[i+1]) - f(x[i])) = V.
    for (unsigned i = 2; i < kLayers; ++i) {
        z.x[i] = std::sqrt(-2.0 * std::log(kV / z.x[i - 1] + z.f[i - 1]));
        z.f[i] = density(z.x[i]);
    }
    z.x[kLayers] = 0.0;
    z.f[kLayers] = 1.0;
    for (unsigned i = 0; i < kLayers; ++i) {
        z.inner[i] = static_cast<std::uint64_t>(
            std::ceil(z.x[i + 1] / z.x[i] * 0x1.0p53));
        z.scale[i] = z.x[i] * 0x1.0p-53;
    }
    return z;
}

} // namespace detail

bool
KeyedRng::edge(unsigned layer, std::uint64_t u, double &x)
{
    using detail::Ziggurat;
    if (layer == 0) {
        // Marsaglia's tail algorithm: R + a with a ~ Exp(R) accepted
        // with probability exp(-a^2 / 2) samples f beyond R exactly.
        // Uniforms in (0, 1] keep the logarithms finite.
        auto positive = [this] {
            return static_cast<double>((raw() >> 11) + 1) * 0x1.0p-53;
        };
        for (;;) {
            const double a = -std::log(positive()) / Ziggurat::kR;
            const double b = -std::log(positive());
            if (b + b >= a * a) {
                x = Ziggurat::kR + a;
                return true;
            }
        }
    }
    // Wedge: (x, y) is uniform over the layer's strip outside its
    // inner rectangle; keep it when y falls under the curve.
    const detail::Ziggurat &z = detail::ziggurat();
    x = static_cast<double>(u) * z.scale[layer];
    const double y =
        z.f[layer] + uniform() * (z.f[layer + 1] - z.f[layer]);
    return y < std::exp(-0.5 * x * x);
}

} // namespace redeye
