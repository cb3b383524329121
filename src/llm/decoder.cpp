#include "llm/decoder.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim::llm {

std::uint64_t
DecoderSpec::weightBytes() const
{
    const std::uint64_t qkv =
        std::uint64_t{hiddenDim + 2 * kvDim()} * hiddenDim;
    const std::uint64_t out = std::uint64_t{hiddenDim} * hiddenDim;
    const std::uint64_t ffn = 2ULL * ffnDim * hiddenDim;
    return (qkv + out + ffn) * layers * 2ULL; // FP16
}

void
DecoderSpec::validate() const
{
    PIMSIM_ASSERT(layers >= 1, "DecoderSpec needs at least one layer");
    PIMSIM_ASSERT(heads >= 1 && hiddenDim % heads == 0,
                  "hiddenDim must divide evenly into heads (", hiddenDim,
                  " / ", heads, ")");
    PIMSIM_ASSERT(kvHeads >= 1 && kvHeads <= heads && heads % kvHeads == 0,
                  "kvHeads must divide heads (", heads, " / ", kvHeads, ")");
    PIMSIM_ASSERT(ffnDim >= 1, "DecoderSpec needs a positive ffnDim");
    PIMSIM_ASSERT(maxContextTokens >= 1,
                  "DecoderSpec needs a positive context limit");
}

DecoderSpec
DecoderSpec::tiny()
{
    DecoderSpec s;
    s.name = "tiny";
    s.layers = 4;
    s.hiddenDim = 512;
    s.heads = 8;
    s.kvHeads = 4;
    s.ffnDim = 1536;
    s.maxContextTokens = 2048;
    return s;
}

DecoderSpec
DecoderSpec::small()
{
    DecoderSpec s;
    s.name = "small";
    s.layers = 12;
    s.hiddenDim = 768;
    s.heads = 12;
    s.kvHeads = 4;
    s.ffnDim = 3072;
    s.maxContextTokens = 2048;
    return s;
}

unsigned
ctxBucket(unsigned ctx, unsigned granule)
{
    PIMSIM_ASSERT(granule >= 1, "zero context-bucket granule");
    if (ctx == 0)
        return granule;
    return ((ctx + granule - 1) / granule) * granule;
}

namespace {

/** attnIds_ slot of a context bucket not priced yet. */
constexpr auto kNoApp = ~serve::ServiceTimeCache::AppId{0};

LayerSpec
fcLayer(unsigned m, unsigned n, unsigned steps)
{
    LayerSpec layer;
    layer.kind = LayerSpec::Kind::Fc;
    layer.hidden = m;
    layer.input = n;
    layer.steps = steps;
    // Decode iterations are issued as pre-staged command buffers (the
    // AAM macro path of Section V-B): every step's launch is known at
    // iteration start, so launches amortise like encoder-style layers.
    layer.inputsAvailable = true;
    layer.pimEligible = true;
    return layer;
}

} // namespace

AppSpec
decodeFfnApp(const DecoderSpec &spec)
{
    spec.validate();
    AppSpec app;
    app.name = "llm." + spec.name + ".decode-ffn";
    const unsigned h = spec.hiddenDim;
    // Fused QKV projection: rows = q-dim + k-dim + v-dim.
    app.layers.push_back(fcLayer(h + 2 * spec.kvDim(), h, spec.layers));
    app.layers.push_back(fcLayer(h, h, spec.layers)); // attn output
    app.layers.push_back(fcLayer(spec.ffnDim, h, spec.layers)); // FFN up
    app.layers.push_back(fcLayer(h, spec.ffnDim, spec.layers)); // FFN down
    return app;
}

AppSpec
decodeAttnApp(const DecoderSpec &spec, unsigned ctx_bucket)
{
    spec.validate();
    PIMSIM_ASSERT(ctx_bucket >= 1, "zero attention context bucket");
    AppSpec app;
    app.name =
        "llm." + spec.name + ".decode-attn@" + std::to_string(ctx_bucket);
    const unsigned steps = spec.layers * spec.kvHeads;
    // score = K . q : (ctx x headDim) GEMV per KV head per layer
    app.layers.push_back(fcLayer(ctx_bucket, spec.headDim(), steps));
    // context = V^T . softmax(score) : (headDim x ctx) GEMV
    app.layers.push_back(fcLayer(spec.headDim(), ctx_bucket, steps));
    return app;
}

DecodeCost::DecodeCost(const SystemConfig &system, const DecoderSpec &spec,
                       unsigned ctx_granule, unsigned prefill_granule,
                       std::shared_ptr<serve::ServiceTimeCache> cache)
    : spec_(spec), ctxGranule_(ctx_granule),
      prefillGranule_(prefill_granule),
      model_(system, system.numChannels(), std::move(cache)),
      ffnId_(model_.intern(decodeFfnApp(spec)))
{
}

serve::ServiceTimeCache::AppId
DecodeCost::attnId(unsigned ctx)
{
    const unsigned bucket = ctxBucket(ctx, ctxGranule_);
    const unsigned index = bucket / ctxGranule_ - 1;
    if (index >= attnIds_.size())
        attnIds_.resize(index + 1, kNoApp);
    if (attnIds_[index] == kNoApp)
        attnIds_[index] = model_.intern(decodeAttnApp(spec_, bucket));
    return attnIds_[index];
}

double
DecodeCost::prefillNs(unsigned ctx)
{
    const unsigned bucket = ctxBucket(ctx, prefillGranule_);
    return ffnNs(bucket) +
           model_.serviceNs(attnId(ctx), std::max(1u, bucket / 2));
}

} // namespace pimsim::llm
