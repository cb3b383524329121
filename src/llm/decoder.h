/**
 * @file
 * Decoder-layer model: lowering transformer decode onto PIM GEMVs.
 *
 * Transformer decode is the paper's sweet spot restated: every matrix
 * in the layer stack multiplies a single activation vector per request
 * per step, so the whole iteration is a bag of memory-bound GEMVs —
 * exactly the bank-parallel FP16 MAC op of Section IV. This module
 * describes a decoder (`DecoderSpec`) and lowers one decode iteration
 * into two AppSpec shapes priced by the existing memoised
 * ShardServiceModel path (DecodeCost holds the pricing formulas):
 *
 *  - decodeFfnApp(): the weight GEMVs (QKV projection, attention
 *    output, FFN up/down) shared by every request in the batch. Their
 *    weights are resident, so batching across requests amortises the
 *    per-kernel launch overhead — the lever continuous batching pulls.
 *  - decodeAttnApp(ctx): the KV-cache GEMVs (score = K·q, context =
 *    V·softmax) whose matrix is each request's own cache. These cannot
 *    batch across requests, and their shape grows with context length;
 *    context lengths are bucketed (ctxBucket) so the memo table stays
 *    small while million-token campaigns stay cycle-accurate per shape.
 *
 * GQA (kvHeads < heads) shrinks both the KV bytes per token and the
 * attention GEMV count, which is why it is first-class in the spec.
 */

#ifndef PIMSIM_LLM_DECODER_H
#define PIMSIM_LLM_DECODER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/service_model.h"
#include "stack/workloads.h"

namespace pimsim::llm {

/** Architecture of one decoder-only transformer. */
struct DecoderSpec
{
    std::string name = "decoder";
    unsigned layers = 4;
    unsigned hiddenDim = 512;
    unsigned heads = 8;
    /** Grouped-query attention: KV heads (== heads means full MHA). */
    unsigned kvHeads = 4;
    unsigned ffnDim = 1536;
    /** Hard context limit (prompt + generated), tokens. */
    unsigned maxContextTokens = 2048;

    unsigned headDim() const { return hiddenDim / heads; }
    unsigned kvDim() const { return kvHeads * headDim(); }

    /** K + V bytes appended per token across all layers (FP16). */
    std::uint64_t kvBytesPerToken() const
    {
        return 2ULL * layers * kvDim() * 2ULL;
    }

    /** Total weight bytes (FP16) for row-budget accounting. */
    std::uint64_t weightBytes() const;

    /** PIMSIM_ASSERTs the spec is internally consistent. */
    void validate() const;

    /** ~10M-param toy model: fast enough for tests and smoke runs. */
    static DecoderSpec tiny();
    /** ~125M-param small model: the bench's default subject. */
    static DecoderSpec small();
};

/**
 * Round `ctx` up to a multiple of `granule` (minimum one granule).
 * Bucketing bounds the number of distinct attention shapes the service
 * cache must measure: at granule 128 a 2048-token window costs at most
 * 16 cycle-level simulations per batch size, ever.
 */
unsigned ctxBucket(unsigned ctx, unsigned granule);

/**
 * The batched weight-GEMV portion of one decode iteration: QKV
 * projection, attention output projection, FFN up and down, with
 * steps = layers. Service time is a function of the decode batch size.
 */
AppSpec decodeFfnApp(const DecoderSpec &spec);

/**
 * The per-request KV-cache GEMV portion of one decode iteration at
 * context bucket `ctx_bucket`: score (ctx x headDim) and context
 * (headDim x ctx) GEMVs, steps = layers x kvHeads. Always priced at
 * batch 1 — a request's cache is private.
 */
AppSpec decodeAttnApp(const DecoderSpec &spec, unsigned ctx_bucket);

/**
 * Decode and prefill device time on the served system (all channels),
 * priced through one service model: the engine and every calibration
 * that mirrors it share these formulas. Context lengths are bucketed at
 * `ctx_granule` (attention) and `prefill_granule` (prefill batch).
 */
class DecodeCost
{
  public:
    DecodeCost(const SystemConfig &system, const DecoderSpec &spec,
               unsigned ctx_granule, unsigned prefill_granule,
               std::shared_ptr<serve::ServiceTimeCache> cache);

    /** The batched weight GEMVs of one iteration at `batch`. */
    double ffnNs(unsigned batch) { return model_.serviceNs(ffnId_, batch); }

    /** One request's KV-cache GEMVs at context `ctx`. */
    double attnNs(unsigned ctx) { return model_.serviceNs(attnId(ctx), 1); }

    /** Staging a `ctx`-token context: the weight GEMVs batch across the
     *  prefill bucket; the causal attention triangle averages to the
     *  full-context shape at half that batch. */
    double prefillNs(unsigned ctx);

    /** Per-token time of a request at `ctx` in a `batch`-wide
     *  iteration (the FFN amortised across the batch). */
    double tokenNs(unsigned ctx, unsigned batch)
    {
        return ffnNs(batch) / batch + attnNs(ctx);
    }

  private:
    /** Interned on a context bucket's first use. */
    serve::ServiceTimeCache::AppId attnId(unsigned ctx);

    DecoderSpec spec_;
    unsigned ctxGranule_;
    unsigned prefillGranule_;
    serve::ShardServiceModel model_;
    serve::ServiceTimeCache::AppId ffnId_;
    /** Per context bucket (bucket / ctxGranule_ - 1). */
    std::vector<serve::ServiceTimeCache::AppId> attnIds_;
};

} // namespace pimsim::llm

#endif // PIMSIM_LLM_DECODER_H
