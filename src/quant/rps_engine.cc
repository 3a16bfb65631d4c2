/**
 * @file
 * RpsEngine implementation.
 */

#include "quant/rps_engine.hh"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/thread_pool.hh"

namespace twoinone {

RpsEngine::RpsEngine(Network &net) : RpsEngine(net, net.precisionSet())
{
}

RpsEngine::RpsEngine(Network &net, PrecisionSet cache_set)
    : RpsEngine(net, std::move(cache_set), DeferBuild{})
{
    refresh();
}

RpsEngine::RpsEngine(Network &net, PrecisionSet cache_set, DeferBuild)
    : net_(net), cacheSet_(std::move(cache_set)),
      layers_(net.weightQuantizedLayers())
{
    TWOINONE_ASSERT(!cacheSet_.empty(),
                    "RpsEngine needs a non-empty precision set");
    for (int bits : cacheSet_.bits()) {
        TWOINONE_ASSERT(net_.precisionSet().contains(bits),
                        "cache precision ", bits,
                        " not in the network's bound set ",
                        net_.precisionSet().name());
    }
    cache_.resize(layers_.size());
    for (auto &per_layer : cache_)
        per_layer.resize(cacheSet_.size());
    notedVersion_.assign(layers_.size(), 0);
    pinnedIdx_.assign(cacheSet_.size(), false);
}

RpsEngine::~RpsEngine()
{
    detach();
}

bool
RpsEngine::cellStale(size_t layer, size_t prec) const
{
    const CacheEntry &e = cache_[layer][prec];
    return !e.built ||
           e.builtVersion != layers_[layer]->masterWeightVersion();
}

bool
RpsEngine::tryHydrate(size_t layer, size_t prec)
{
    if (!hydrator_)
        return false;
    // The artifact's cells were quantized from the masters as saved;
    // once a layer trains past that version its persisted codes are
    // wrong — rebuild instead.
    if (layers_[layer]->masterWeightVersion() !=
        hydratorVersion_[layer])
        return false;
    HydratedCell h;
    if (!hydrator_(layer, cacheSet_.bits()[prec], h))
        return false;
    // Defensive geometry check: a malformed (but parseable) cell must
    // fall back to a rebuild, not corrupt the install.
    if (h.codes.bits != cacheSet_.bits()[prec] ||
        h.codes.size() != layers_[layer]->masterWeight().size())
        return false;
    CacheEntry &e = cache_[layer][prec];
    e.codes = std::move(h.codes);
    // A persisted pack in another layout than the layer reads (e.g.
    // a conv pack from before tap-major packing) is never installed:
    // the cell repacks on first install instead.
    if (h.hasPack && h.packed.taps == layers_[layer]->packTaps()) {
        e.packed = std::move(h.packed);
        e.packedReady = true;
    } else if (e.packedReady) {
        packEntry(layer, e); // keep a live tile pack current
    }
    e.built = true;
    e.builtVersion = layers_[layer]->masterWeightVersion();
    cellHydrations_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
RpsEngine::ensureCell(size_t layer, size_t prec)
{
    if (!cache_[layer][prec].built)
        tryHydrate(layer, prec);
    if (cellStale(layer, prec))
        rebuildCell(layer, prec);
}

void
RpsEngine::packEntry(size_t layer, CacheEntry &e)
{
    layers_[layer]->packCodes(e.codes, e.packed);
    e.packedReady = true;
    packBuilds_.fetch_add(1, std::memory_order_relaxed);
}

void
RpsEngine::rebuildCell(size_t layer, size_t prec)
{
    CacheEntry &e = cache_[layer][prec];
    QuantTensor::quantizeSymmetricInto(layers_[layer]->masterWeight(),
                                       cacheSet_.bits()[prec], e.codes);
    if (e.packedReady)
        packEntry(layer, e); // keep installed pack pointers current
    e.built = true;
    e.builtVersion = layers_[layer]->masterWeightVersion();
    columnRebuilds_.fetch_add(1, std::memory_order_relaxed);
}

void
RpsEngine::rebuildLayers(const std::vector<size_t> &which)
{
    const int64_t nprec = static_cast<int64_t>(cacheSet_.size());
    // (layer, precision) pairs are independent; grain 1 gives
    // deterministic fixed chunking, and the quantization passes inside
    // run inline (nested parallelFor), so each entry is bit-identical
    // to a serially built one.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(which.size()) * nprec, 1,
        [&](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t) {
                size_t l = which[static_cast<size_t>(t / nprec)];
                size_t p = static_cast<size_t>(t % nprec);
                rebuildCell(l, p);
            }
        });
    for (size_t l : which)
        notedVersion_[l] = layers_[l]->masterWeightVersion();
}

void
RpsEngine::refresh()
{
    std::vector<size_t> all(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l)
        all[l] = l;
    rebuildLayers(all);
    evictToBudget();
}

size_t
RpsEngine::refreshDirty()
{
    // Note which layers moved; their cells rebuild lazily when
    // setPrecision next installs a column — except the column that is
    // installed RIGHT NOW, which forwards may consume before any
    // switch (e.g. Free training replays several optimizer steps per
    // precision draw), so it is brought current here.
    size_t noted = 0;
    for (size_t l = 0; l < layers_.size(); ++l) {
        uint64_t v = layers_[l]->masterWeightVersion();
        if (v != notedVersion_[l]) {
            notedVersion_[l] = v;
            ++noted;
        }
    }
    if (noted > 0 && installedIdx_ >= 0) {
        size_t idx = static_cast<size_t>(installedIdx_);
        ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(layers_.size()), 1,
            [&](int64_t lo, int64_t hi) {
                for (int64_t l = lo; l < hi; ++l) {
                    size_t ls = static_cast<size_t>(l);
                    if (cellStale(ls, idx))
                        rebuildCell(ls, idx);
                }
            });
    }
    return noted;
}

void
RpsEngine::setPrecision(int bits)
{
    if (bits == 0 || !cacheSet_.contains(bits)) {
        // Full precision, or a bound-set precision the engine was not
        // asked to cache: run uncached.
        detach();
        net_.setPrecision(bits);
        return;
    }
    size_t idx = static_cast<size_t>(cacheSet_.indexOf(bits));
    // Bring the installed column current: hydrate absent cells from
    // the streaming artifact when one is attached, and re-quantize
    // cells whose master weights moved (the lazy column rebuild —
    // only the column being consumed pays). A warm switch finds
    // every cell built, current and packed in one serial scan and
    // skips the pool dispatch, which would cost more than the
    // installs.
    bool work = false;
    for (size_t l = 0; l < layers_.size() && !work; ++l)
        work = cellStale(l, idx) || !cache_[l][idx].packedReady;
    if (work) {
        ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(layers_.size()), 1,
            [&](int64_t lo, int64_t hi) {
                for (int64_t l = lo; l < hi; ++l) {
                    size_t ls = static_cast<size_t>(l);
                    CacheEntry &e = cache_[ls][idx];
                    ensureCell(ls, idx);
                    // First install of this cell: build the
                    // tile-packed kernel weights (rebuilds keep them
                    // current after this). Packing is a data-layout
                    // copy, not a quantization, so it does not count
                    // as a column rebuild — checkpoint warm starts
                    // stay at zero.
                    if (!e.packedReady)
                        packEntry(ls, e);
                }
            });
    }
    const uint64_t tick = ++useTick_;
    for (size_t l = 0; l < layers_.size(); ++l) {
        cache_[l][idx].lastUse = tick;
        layers_[l]->setWeightCodes(&cache_[l][idx].codes);
        layers_[l]->setWeightPacked(&cache_[l][idx].packed);
    }
    installedIdx_ = static_cast<int>(idx);
    net_.setPrecision(bits);
    // The install may have hydrated or packed a whole column —
    // re-enforce the byte ceiling now that the column is protected.
    evictToBudget();
}

Tensor
RpsEngine::forwardAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.forward(x, /*train=*/false);
}

Tensor
RpsEngine::forwardQuantizedAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.forwardQuantized(x);
}

std::vector<int>
RpsEngine::predictAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.predict(x);
}

std::vector<int>
RpsEngine::predictQuantizedAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.predictQuantized(x);
}

Tensor
RpsEngine::forwardRandom(const Tensor &x, Rng &rng, int *bits_out)
{
    int bits = samplePrecision(rng);
    if (bits_out)
        *bits_out = bits;
    return forwardAt(bits, x);
}

void
RpsEngine::detach()
{
    for (WeightQuantizedLayer *l : layers_) {
        l->setWeightCodes(nullptr);
        l->setWeightPacked(nullptr);
    }
    installedIdx_ = -1;
}

const QuantTensor &
RpsEngine::codesFor(size_t layer, int bits)
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    ensureCell(layer, p);
    cache_[layer][p].lastUse = ++useTick_;
    return cache_[layer][p].codes;
}

void
RpsEngine::importCellImpl(size_t layer, size_t prec, QuantTensor codes)
{
    TWOINONE_ASSERT(layer < cache_.size() && prec < cacheSet_.size(),
                    "cache cell out of range");
    TWOINONE_ASSERT(codes.bits == cacheSet_.bits()[prec],
                    "imported cell precision mismatch");
    TWOINONE_ASSERT(codes.size() == layers_[layer]->masterWeight().size(),
                    "imported cell size mismatch");
    CacheEntry &e = cache_[layer][prec];
    e.codes = std::move(codes);
    if (e.packedReady)
        packEntry(layer, e); // keep a live tile pack current
    e.built = true;
    e.builtVersion = layers_[layer]->masterWeightVersion();
    e.lastUse = ++useTick_;
}

void
RpsEngine::importCell(size_t layer, size_t prec, QuantTensor codes)
{
    importCellImpl(layer, prec, std::move(codes));
    evictToBudget();
}

void
RpsEngine::importCell(size_t layer, size_t prec, QuantTensor codes,
                      gemm::PackedIntWeights packed)
{
    TWOINONE_ASSERT(layer < cache_.size() && prec < cacheSet_.size(),
                    "cache cell out of range");
    const int m = codes.shape.empty() ? 0 : codes.shape[0];
    const int k = m > 0 ? static_cast<int>(codes.size()) / m : 0;
    TWOINONE_ASSERT(packed.m == m && packed.k == k &&
                        packed.bits == codes.bits,
                    "imported pack geometry does not match its codes");
    importCellImpl(layer, prec, std::move(codes));
    // Same layout rule as tryHydrate: a pack in another layout is
    // dropped and rebuilt on first install.
    if (packed.taps == layers_[layer]->packTaps()) {
        CacheEntry &e = cache_[layer][prec];
        e.packed = std::move(packed);
        e.packedReady = true;
    }
    evictToBudget();
}

const gemm::PackedIntWeights &
RpsEngine::packedFor(size_t layer, int bits)
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    ensureCell(layer, p);
    CacheEntry &e = cache_[layer][p];
    e.lastUse = ++useTick_;
    if (!e.packedReady)
        packEntry(layer, e);
    return e.packed;
}

uint64_t
RpsEngine::columnRebuilds() const
{
    return columnRebuilds_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::packBuilds() const
{
    return packBuilds_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::cacheHits() const
{
    uint64_t total = 0;
    for (WeightQuantizedLayer *l : layers_)
        total += l->cacheHits();
    return total;
}

uint64_t
RpsEngine::cacheMisses() const
{
    uint64_t total = 0;
    for (WeightQuantizedLayer *l : layers_)
        total += l->cacheMisses();
    return total;
}

void
RpsEngine::resetCacheStats()
{
    for (WeightQuantizedLayer *l : layers_)
        l->resetCacheStats();
}

size_t
RpsEngine::cellBytes(const CacheEntry &e)
{
    return e.codes.bytes() + e.packed.bytes();
}

size_t
RpsEngine::cacheBytes() const
{
    size_t bytes = 0;
    for (const auto &per_layer : cache_)
        for (const CacheEntry &e : per_layer)
            bytes += cellBytes(e);
    return bytes;
}

void
RpsEngine::setCacheConfig(EngineCacheConfig cfg)
{
    pinnedIdx_.assign(cacheSet_.size(), false);
    for (int b : cfg.pinnedBits) {
        TWOINONE_ASSERT(cacheSet_.contains(b), "pinned precision ", b,
                        " not in the cached set ", cacheSet_.name());
        pinnedIdx_[static_cast<size_t>(cacheSet_.indexOf(b))] = true;
    }
    cacheCfg_ = std::move(cfg);
    evictToBudget();
}

void
RpsEngine::setCellHydrator(CellHydrator hydrator)
{
    hydrator_ = std::move(hydrator);
    hydratorVersion_.resize(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l)
        hydratorVersion_[l] = layers_[l]->masterWeightVersion();
}

void
RpsEngine::evictToBudget()
{
    if (cacheCfg_.budgetBytes == 0)
        return;
    size_t total = cacheBytes();
    bool evicted = false;
    while (total > cacheCfg_.budgetBytes) {
        // LRU victim among the evictable cells: never the installed
        // column (layers hold live pointers into it) and never a
        // pinned precision. When only protected bytes remain the
        // budget is infeasible — stop rather than break serving; the
        // budget is a ceiling on *idle* cells, not on the working set.
        CacheEntry *victim = nullptr;
        for (auto &per_layer : cache_) {
            for (size_t p = 0; p < per_layer.size(); ++p) {
                CacheEntry &e = per_layer[p];
                if (!e.built || pinnedIdx_[p] ||
                    (installedIdx_ >= 0 &&
                     p == static_cast<size_t>(installedIdx_)))
                    continue;
                if (victim == nullptr || e.lastUse < victim->lastUse)
                    victim = &e;
            }
        }
        if (victim == nullptr)
            break;
        total -= cellBytes(*victim);
        *victim = CacheEntry();
        cacheEvictions_.fetch_add(1, std::memory_order_relaxed);
        evicted = true;
    }
#if defined(__GLIBC__)
    // Cells are built on pool threads, each allocating from its own
    // malloc arena, and freed here; the allocator keeps those pages
    // (a cell rebuilt later lands in whichever arena its thread
    // uses), so resident memory would grow past the budget. Hand the
    // freed pages back.
    if (evicted)
        malloc_trim(0);
#endif
}

bool
RpsEngine::cellResident(size_t layer, int bits) const
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    return cache_[layer][p].built;
}

uint64_t
RpsEngine::cacheEvictions() const
{
    return cacheEvictions_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::cellHydrations() const
{
    return cellHydrations_.load(std::memory_order_relaxed);
}

} // namespace twoinone
