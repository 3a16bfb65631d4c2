/**
 * @file
 * Versioned model artifacts: the single-file binary format that makes
 * a trained RPS model leave the process.
 *
 * A checkpoint is the unit of deployment for the paper's serving
 * story: a network trained once under random precision switch, then
 * shipped to an accelerator that serves it at randomly drawn
 * precisions. One file carries everything a fresh process needs to
 * reproduce the training process's inference bit-for-bit:
 *
 *   - the architecture spec (NetworkSpec: candidate precisions +
 *     per-layer construction specs), so the network is rebuilt from
 *     data, not C++ code;
 *   - every named state blob (master weights, SBN banks with their
 *     running statistics and trained flags, per-(ActQuant, precision)
 *     calibration range banks and the static-scale mode);
 *   - optionally the SGD velocity buffers, so a resumed training run
 *     continues its momentum trajectory bit-identically;
 *   - optionally the RpsEngine weight-code cache (integer codes per
 *     layer x candidate), so a loaded model warm-starts its engine
 *     without a single quantization pass.
 *
 * Format version 2 (little-endian) is *section-directory* framed so
 * readers can hydrate lazily (io/stream.hh):
 *
 *   magic "2IN1CKPT" (8) | format version u32 | flags u32
 *   section count u32
 *   per section: tag (4 raw bytes), a i32, b i32, offset u64,
 *                size u64, fnv1a64(section bytes) u64
 *   fnv1a64(header + directory) u64
 *   section payloads, back to back (offsets are absolute; sections
 *   tile the rest of the file exactly)
 *
 * Sections, in file order (a/b are -1 unless noted):
 *
 *   ARCH   precisions intVec; layer count u32;
 *          per layer: kind str, args intVec
 *   STAT   entry count u32; per entry: name str, dtype u8, payload
 *          (dtype 0 = f32 tensor, 1 = f32 vec, 2 = u8 vec, 3 = bool)
 *   MOMN   (flags bit 3) SGD velocity: count u32, then one f32
 *          tensor per network parameter, in Network::parameters()
 *          order
 *   CBIT   (flags bit 0) cached precisions intVec; cached layer
 *          count u32
 *   CELL   (flags bit 0; a = layer, b = bits) one engine cache cell:
 *          codes (shape intVec, scale f32, bits i32, signed u8,
 *          codes i32Vec). Artifacts written while the engine stored
 *          STE masks append the bit-packed mask (u8Vec); readers
 *          accept and drop it — the mask is derived from the codes'
 *          grid — and reject any byte beyond it
 *   PACK   (flags bit 2; a = layer, b = bits; requires CBIT) the
 *          cell's tile-packed kernel weights: m/k/bits/tiles/groups8/
 *          groups16 i32 each, p8 u8Vec, p16 i16Vec, rowSum i64Vec,
 *          then the layout tag taps i32 (gemm::PackedIntWeights::taps;
 *          absent in artifacts written before tap-major conv packs,
 *          read as 1). A pack whose tag differs from its layer's
 *          layout is never installed — the engine repacks the cell
 *   TUNE   (flags bit 1) one tune::TuningArtifact (version u32,
 *          seed u64, serving genome, predicted cost f32)
 *
 * Every file byte is covered by a checksum: header + directory by the
 * directory hash, payload bytes by their section's hash. The eager
 * reader (Checkpoint::read) walks and verifies every section — the
 * whole-file integrity guarantee of format 1 is preserved — while the
 * streaming reader (StreamingCheckpoint) verifies the directory plus
 * only the sections it actually touches, each on first hydration.
 *
 * Malformed input (missing file, truncation, checksum mismatch,
 * unsupported version, incompatible spec) throws io::CheckpointError —
 * it is a recoverable caller-facing condition, not a library bug.
 */

#ifndef TWOINONE_IO_CHECKPOINT_HH
#define TWOINONE_IO_CHECKPOINT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hh"
#include "io/stream.hh"
#include "nn/network.hh"
#include "nn/sgd.hh"
#include "quant/rps_engine.hh"
#include "tune/artifact.hh"

namespace twoinone {
namespace checkpoint {

/** Current checkpoint format version (the v2 section directory). */
constexpr uint32_t kFormatVersion = io::kStreamFormatVersion;

/** Save-time options. */
struct SaveOptions
{
    /** Serialize the engine's weight-code cache (when an engine is
     * passed): bigger file, zero-quantization warm start on load. */
    bool includeEngineCache = true;
    /** Also serialize each cache cell's tile-packed kernel weights
     * (requires the cache section): bigger file again, but a warm
     * start then installs ready-to-run packs — packBuilds() == 0, no
     * pack pass before the first served batch. */
    bool includeEnginePacks = false;
    /** Serving-autotuner artifact to embed as the tuning section
     * (null = none). Session::fromCheckpoint auto-applies it. */
    const tune::TuningArtifact *tuning = nullptr;
    /** Optimizer whose velocity buffers to persist (null = none).
     * restoreOptimizer() puts them back, so a reloaded training run
     * resumes its momentum trajectory bit-identically. */
    const Sgd *optimizer = nullptr;
};

/**
 * Write @p net (arch spec + full state) to @p path, optionally with
 * @p engine's weight-code cache. Non-const: state collection reads
 * through live member pointers and the engine brings stale cells
 * current before export. Throws io::CheckpointError on I/O failure.
 */
void save(const std::string &path, Network &net,
          RpsEngine *engine = nullptr,
          const SaveOptions &opts = SaveOptions());

/**
 * A parsed model artifact. read() validates framing and every
 * section checksum; instantiate()/restoreEngine() then rebuild the
 * live objects. Keeping the parsed form separate from the live
 * objects lets one read serve both the network and its engine without
 * touching the file twice.
 */
class Checkpoint
{
  public:
    /** Parse @p path eagerly — every section is hydrated and
     * checksum-verified (throws io::CheckpointError on any
     * malformation: missing file, truncation, bad magic, unsupported
     * version, checksum mismatch). */
    static Checkpoint read(const std::string &path);

    /** The architecture spec the artifact was saved from. */
    const NetworkSpec &spec() const { return spec_; }

    /**
     * Build a fresh Network from the spec and restore every state
     * blob into it. The result reproduces the saved model's inference
     * bit-for-bit. Throws io::CheckpointError when the artifact is
     * missing state the rebuilt network needs or shapes disagree.
     */
    Network instantiate() const;

    /** Whether the artifact carries a serialized engine cache. */
    bool hasEngineCache() const { return !cacheBits_.empty(); }

    /** Whether the cache section also carries tile packs. */
    bool hasEnginePacks() const { return !packs_.empty(); }

    /** Whether the artifact carries SGD velocity buffers. */
    bool hasOptimizerState() const { return hasMomentum_; }

    /**
     * Restore the persisted velocity buffers into @p opt, keyed by
     * @p net's parameter order (@p net must be the instantiate()d
     * network or one of identical architecture). Throws
     * io::CheckpointError when the artifact has no optimizer state or
     * the buffers do not match the network's parameters.
     */
    void restoreOptimizer(Sgd &opt, Network &net) const;

    /** The embedded tuning artifact, or null when the checkpoint has
     * no tuning section. */
    const tune::TuningArtifact *tuning() const { return tuning_.get(); }

    /**
     * Build an RpsEngine on @p net warm-started from the serialized
     * code cache: no quantization pass runs — every cell is imported
     * as built (columnRebuilds() == 0, and the first switch serves
     * with cacheMisses() == 0). Returns nullptr when the artifact has
     * no cache section. @p net must be the instantiate()d network (or
     * one of identical architecture); mismatches throw. The lvalue
     * overload copies the cells (the Checkpoint stays reusable); the
     * rvalue overload moves them into the engine — the multi-megabyte
     * code cache is not duplicated on the one-shot load path.
     */
    std::unique_ptr<RpsEngine> restoreEngine(Network &net) const &;
    std::unique_ptr<RpsEngine> restoreEngine(Network &net) &&;

  private:
    friend class StreamingCheckpoint;

    /** One named state blob (see StateEntry for the dtype mapping). */
    struct Blob
    {
        uint8_t dtype = 0;
        Tensor tensor;
        std::vector<float> floats;
        std::vector<char> flags;
        bool flag = false;
    };

    /** Parse the always-eager sections (ARCH, STAT, MOMN, TUNE) plus
     * the cache *metadata* (CBIT) from @p sr. Cell/pack payloads are
     * left untouched — the eager read() hydrates them next, the
     * streaming loader never does. */
    static Checkpoint parseEager(const io::SectionReader &sr);

    /** Shared restoreEngine body; @p consume moves the cell codes
     * out (rvalue overload) instead of copying them. */
    std::unique_ptr<RpsEngine> restoreEngineImpl(Network &net,
                                                 bool consume);

    NetworkSpec spec_;
    std::map<std::string, Blob> blobs_;
    /** Velocity tensors in Network::parameters() order (MOMN). */
    std::vector<Tensor> momentum_;
    bool hasMomentum_ = false;
    std::vector<int> cacheBits_;
    /** cells_[layer][precision index in cacheBits_]: the cells'
     * codes. */
    std::vector<std::vector<QuantTensor>> cells_;
    /** packs_[layer][precision index], parallel to cells_; empty when
     * the artifact carries no pack section. */
    std::vector<std::vector<gemm::PackedIntWeights>> packs_;
    /** The tuning section, when present. */
    std::unique_ptr<tune::TuningArtifact> tuning_;
};

/**
 * The streaming load path: parse the directory plus the cheap
 * always-needed sections (arch spec, state blobs, optimizer state,
 * tuning) eagerly, and leave the dominant payload — the engine code
 * cells and tile packs — on disk, hydrated per (layer, precision) on
 * first touch through the RpsEngine's cell hydrator. Peak RSS of a
 * warm start drops from ~artifact size to ~model state + the cells
 * actually resident under the engine's byte budget.
 *
 * Corruption in a lazily hydrated cell is detected by its section
 * checksum at first touch; the engine then falls back to re-
 * quantizing the cell from the master weights, which is bit-identical
 * to the persisted codes — serving stays correct, the artifact just
 * loses its warm-start discount for that cell.
 */
class StreamingCheckpoint
{
  public:
    /** Open @p path: validate header + directory, hydrate the eager
     * sections (throws io::CheckpointError on malformation). */
    explicit StreamingCheckpoint(const std::string &path);

    const NetworkSpec &spec() const { return eager_.spec(); }

    /** Rebuild the network from the eagerly hydrated spec + state. */
    Network instantiate() const { return eager_.instantiate(); }

    bool hasEngineCache() const { return !cacheBits_.empty(); }
    bool hasOptimizerState() const { return eager_.hasOptimizerState(); }
    void restoreOptimizer(Sgd &opt, Network &net) const
    {
        eager_.restoreOptimizer(opt, net);
    }
    const tune::TuningArtifact *tuning() const { return eager_.tuning(); }

    /** The underlying section reader (hydration accounting:
     * bytesRead()/sectionsRead() tell how much of the artifact a
     * streaming warm start actually touched). */
    const io::SectionReader &reader() const { return *reader_; }

    /**
     * Build a DeferBuild engine on @p net whose cells hydrate lazily
     * from the artifact: each (layer, precision) cell is read,
     * checksum-verified, and imported on its first install — with
     * packs when the artifact carries them. Returns nullptr when
     * there is no cache section. Static over a shared_ptr because
     * the installed hydrator keeps @p self (and the open file) alive
     * for the engine's lifetime.
     */
    static std::unique_ptr<RpsEngine>
    restoreEngine(const std::shared_ptr<StreamingCheckpoint> &self,
                  Network &net);

  private:
    std::shared_ptr<io::SectionReader> reader_;
    /** The eager sections, parsed once (cells_/packs_ stay empty). */
    Checkpoint eager_;
    std::vector<int> cacheBits_;
    size_t cacheLayers_ = 0;
    bool hasPacks_ = false;
};

} // namespace checkpoint
} // namespace twoinone

#endif // TWOINONE_IO_CHECKPOINT_HH
