/**
 * @file
 * Content-addressed per-operating-point serving models.
 *
 * A retune changes what a frame costs: a new SNR/ADC/depth triple
 * means a different compiled program (redeye/compiler.hh), a
 * different module schedule (service time), different analog energy,
 * and — through the depth — a different digital tail. OpModelCache
 * derives all of those numbers once per distinct operating point,
 * compiling through the *shared* ProgramCache, and keeps them under
 * the operating point's stable key (operatingPointKey).
 *
 * This is the cache re-keying half of the auto-tuner's contract: an
 * operating-point change makes the session's next lookup miss and
 * compile exactly its own entry — nothing is flushed, previous
 * entries stay warm (a scene that returns re-hits its old key), and
 * no stale plan can be served because the key *is* the operating
 * point.
 *
 * buildOpModel() is the one derivation of these numbers: the cache
 * and the fleet engine's per-class models both call it on the one
 * mini-GoogLeNet topology (models/mini_googlenet.hh). Only the
 * operating point varies across entries, so the network's structural
 * hash is shared and the ProgramCache dedupes across every consumer
 * in the process.
 */

#ifndef REDEYE_TUNE_OP_MODEL_HH
#define REDEYE_TUNE_OP_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/content_cache.hh"
#include "core/status.hh"
#include "redeye/compiler.hh"
#include "stream/degrade.hh"
#include "system/jetson.hh"
#include "tune/operating_point.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace tune {

/** Analytic serving numbers of one operating point. */
struct OpModel {
    OperatingPoint op;

    /** The analog prefix at op.depth and the array configuration
     * the program compiles for. */
    std::vector<std::string> analogLayers;
    arch::RedEyeConfig device;

    /** The compiled analog program (shared ProgramCache entry). */
    std::shared_ptr<const arch::Program> program;

    /** The Remap variant: same cut, ADC boosted the way
     * stream::planDegradation programs it. */
    std::shared_ptr<const arch::Program> remapProgram;

    double deviceS = 0.0;      ///< healthy analog frame time
    double remapDeviceS = 0.0; ///< ADC-boosted frame time
    double analogJ = 0.0;      ///< healthy analog frame energy
    double remapAnalogJ = 0.0; ///< ADC-boosted frame energy
    double hostTailS = 0.0;    ///< digital tail time at this depth
    double hostTailJ = 0.0;
    double hostFullS = 0.0;    ///< full network (bypass) time
    double hostFullJ = 0.0;
};

/** Per-frame cost of serving an operating point in a mode. */
struct OpCost {
    double energyJ = 0.0; ///< analog + host energy per frame
    double timeS = 0.0;   ///< unloaded service time per frame
};

/**
 * Serving numbers of @p op on @p net: compiles the program and its
 * Remap variant (ADC + @p adc_boost_bits) through @p programs,
 * schedules and prices both, and evaluates @p host at the cut's
 * digital tail and at the full network. A compile failure is
 * returned as the compiler's Status.
 */
StatusOr<OpModel> buildOpModel(nn::Network &net,
                               arch::ProgramCache &programs,
                               const OperatingPoint &op,
                               unsigned adc_boost_bits,
                               const sys::JetsonTk1 &host);

/** Thread-safe cache of OpModels keyed by operatingPointKey(). */
class OpModelCache
{
  public:
    struct Config {
        sys::JetsonProcessor host = sys::JetsonProcessor::GPU;

        /** Extra ADC bits of the Remap variant
         * (DegradationPolicyConfig::adcBoostBits). */
        unsigned adcBoostBits = 2;
    };

    /**
     * @param net The served topology; must outlive the cache. All
     * entries compile prefixes of this network.
     * @param programs Shared compilation cache; compiled programs of
     * every entry are fetched through (and so deduped with) it.
     */
    OpModelCache(nn::Network &net,
                 std::shared_ptr<arch::ProgramCache> programs,
                 Config config);
    OpModelCache(nn::Network &net,
                 std::shared_ptr<arch::ProgramCache> programs);

    /**
     * The model of @p op, built on first request. The returned
     * reference is stable for the cache's lifetime (entries are
     * never evicted). A non-compilable operating point is fatal —
     * bounds are expected to keep the search inside the compilable
     * box.
     */
    const OpModel &fetch(const OperatingPoint &op);

    /**
     * Per-frame serving cost of @p op under @p mode: Normal =
     * analog + digital tail, Remap = boosted analog + tail (the
     * device-specific dead-column stretch is the caller's), Bypass =
     * full network on the host.
     */
    OpCost costFor(const OperatingPoint &op,
                   stream::DegradeMode mode);

    std::uint64_t hits() const { return models_.hits(); }
    std::uint64_t misses() const { return models_.misses(); }
    std::size_t size() const { return models_.size(); }

  private:
    nn::Network &net_;
    std::shared_ptr<arch::ProgramCache> programs_;
    Config config_;

    /** Host calibrated on the paper's anchors: full network and the
     * depth-5 tail. */
    sys::JetsonTk1 host_;
    ContentCache<OpModel> models_;
};

} // namespace tune
} // namespace redeye

#endif // REDEYE_TUNE_OP_MODEL_HH
