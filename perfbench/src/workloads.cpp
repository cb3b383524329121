#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "common/fp16.h"
#include "common/json.h"
#include "common/logging.h"
#include "host/host_model.h"
#include "llm/engine.h"
#include "reference.h"
#include "serve/serving_engine.h"
#include "sim/system.h"
#include "span.h"
#include "stack/blas.h"
#include "stack/reference.h"
#include "stack/workloads.h"
#include "stats.h"

namespace perfbench {
namespace {

using pimsim::Fp16;
using pimsim::Fp16Vector;
using pimsim::PimSystem;
using pimsim::SystemConfig;

/**
 * setup_s is the median of many throwaway constructions: some before
 * the first round and more after every round (outside the timing), so
 * it samples the whole run rather than one instant of it.
 */
constexpr unsigned kSetupSamplesBefore = 21;
constexpr unsigned kSetupSamplesPerRound = 10;

/** Reference-loop passes before the first round and after every round. */
constexpr unsigned kReferencePassesBefore = 5;
constexpr unsigned kReferencePassesPerRound = 3;

// ---------------------------------------------------------------------
// Inputs: the benchmark's own seeded streams, independent of the
// program's generators, so a program change never changes its inputs.
// ---------------------------------------------------------------------

class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    /** SplitMix64. */
    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    double exponential(double mean) { return -mean * std::log1p(-uniform()); }

    /** Standard normal (Box-Muller, one draw per call). */
    double normal()
    {
        const double u1 = 1.0 - uniform(); // (0, 1]
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * std::numbers::pi * u2);
    }

  private:
    std::uint64_t state_;
};

/** Input streams of one run, by purpose. */
enum class Stream : std::uint64_t
{
    Weights = 1,
    Vectors = 2,
    Arrivals = 3,
};

std::uint64_t
streamSeed(std::uint64_t seed, Stream purpose, std::uint64_t index)
{
    InputRng mix(seed ^ (static_cast<std::uint64_t>(purpose) << 56) ^
                 (index * 0xd1b54a32d192ed03ULL));
    return mix.next();
}

/** FP16 values uniform in [-1, 1): long MAC chains stay finite. */
void
fillFp16(InputRng &rng, Fp16Vector &v, std::size_t n)
{
    v.resize(n);
    for (auto &x : v)
        x = Fp16(static_cast<float>(rng.uniform() * 2.0 - 1.0));
}

bool
bitExact(const Fp16Vector &a, const Fp16Vector &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](Fp16 x, Fp16 y) { return x.bits() == y.bits(); });
}

/** Clamped lognormal token count with the given median. */
unsigned
lognormalTokens(InputRng &rng, double median, double sigma, unsigned lo,
                unsigned hi)
{
    const double v = std::round(median * std::exp(sigma * rng.normal()));
    return static_cast<unsigned>(
        std::clamp(v, static_cast<double>(lo), static_cast<double>(hi)));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Program counters.
// ---------------------------------------------------------------------

/** One system's device counters at an instant (its existing stats). */
struct DeviceCounts
{
    std::uint64_t requests = 0; ///< controller "enqueued"
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t acts = 0;      ///< pseudo channel "act"
    std::uint64_t refreshes = 0; ///< pseudo channel "ref"
    std::uint64_t triggers = 0;  ///< PIM "pim.trigger"
    std::uint64_t cycles = 0;    ///< simulated bus clock

    static DeviceCounts of(const PimSystem &s)
    {
        DeviceCounts c;
        c.requests = s.totalCtrlStat("enqueued");
        c.rowHits = s.totalCtrlStat("rowHit");
        c.rowMisses = s.totalCtrlStat("rowMiss");
        c.acts = s.totalChannelStat("act");
        c.refreshes = s.totalChannelStat("ref");
        c.triggers = s.totalPimStat("pim.trigger");
        c.cycles = s.now();
        return c;
    }

    DeviceCounts operator-(const DeviceCounts &o) const
    {
        DeviceCounts d;
        d.requests = requests - o.requests;
        d.rowHits = rowHits - o.rowHits;
        d.rowMisses = rowMisses - o.rowMisses;
        d.acts = acts - o.acts;
        d.refreshes = refreshes - o.refreshes;
        d.triggers = triggers - o.triggers;
        d.cycles = cycles - o.cycles;
        return d;
    }
};

/** The first round's device counts, under their per-layer names. */
void
recordDevice(std::map<std::string, double> &fp, const DeviceCounts &d)
{
    fp["pim.triggers"] = static_cast<double>(d.triggers);
    fp["mem.requests"] = static_cast<double>(d.requests);
    fp["mem.row_hit_ratio"] =
        ratio(static_cast<double>(d.rowHits),
              static_cast<double>(d.rowHits + d.rowMisses));
    fp["dram.acts"] = static_cast<double>(d.acts);
    fp["dram.refreshes"] = static_cast<double>(d.refreshes);
    fp["sim.cycles"] = static_cast<double>(d.cycles);
}

/** Table VI GEMV1 (1024x4096), GEMV3 (4096x8192) and ADD1 (2M). */
std::vector<pimsim::MicroSpec>
kernelShapes()
{
    std::vector<pimsim::MicroSpec> out;
    for (const auto &spec : pimsim::table6Microbenchmarks()) {
        if (spec.name == "GEMV1" || spec.name == "GEMV3" ||
            spec.name == "ADD1")
            out.push_back(spec);
    }
    return out;
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

/** Run-wide state shared by the harness and the workload. */
struct Bench
{
    explicit Bench(const Options &o) : options(o), rec(false) {}

    const Options &options;
    SpanRecorder rec;
    ReferenceLoops reference;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Benchmark work inside the current phase (subtracted from it). */
    std::int64_t untimedNs = 0;
    /** First-round simulated counts by metric name. */
    std::map<std::string, double> fingerprint;
    /** Engine decode iterations over the current phase (llm only). */
    std::uint64_t iterations = 0;
    /**
     * CPU seconds of the program calls at each position of a round's
     * call sequence, one entry per round of the current phase; see
     * roundCostS().
     */
    std::vector<std::vector<double>> positionS;
    /** Host seconds of every set-up sample so far. */
    std::vector<double> setupS;
    /**
     * Peak resident set through set-up and the first round: one engine
     * lifetime, or one pass over the kernels, as in a user's process.
     * Later rounds only add heap fragmentation, which would make a
     * faster program (more rounds) read larger.
     */
    double firstRoundRssMb = 0.0;

    /** Record the CPU time since `start_cpu_ns` at round position `k`. */
    void position(std::size_t k, std::int64_t start_cpu_ns)
    {
        if (positionS.size() <= k)
            positionS.resize(k + 1);
        positionS[k].push_back(
            static_cast<double>(cpuNowNs() - start_cpu_ns) / 1e9);
    }

    void fail(std::uint64_t ops, const std::string &what)
    {
        failed += ops;
        if (failures.size() < 8)
            failures.push_back(what);
    }

    /** Run benchmark-side work (inputs, checks) outside the timing. */
    template <class F>
    void untimed(SpanRecorder::Id span, F &&work)
    {
        const std::int64_t start = hostNowNs();
        rec.begin(span);
        work();
        rec.end();
        untimedNs += hostNowNs() - start;
    }
};

struct RoundOutcome
{
    std::uint64_t ops = 0;
    double simNs = 0.0;
};

class Workload
{
  public:
    explicit Workload(Bench &b)
        : b_(b), inputsId_(b.rec.intern("bench.inputs")),
          checkId_(b.rec.intern("bench.check"))
    {
    }
    virtual ~Workload() = default;

    /** Fixed inputs, calibration and long-lived program objects. */
    virtual void prepare() {}
    /**
     * Construct the program objects the workload needs into throwaway
     * instances; returns the host seconds of the construction alone.
     */
    virtual double setupSample() = 0;
    /** One round of program calls. */
    virtual RoundOutcome round(unsigned index) = 0;
    /** The stats dump a user pays at the end of a run. */
    virtual std::string statsJson() = 0;
    /** Device counters now (zero where no device is driven directly). */
    virtual DeviceCounts device() const { return {}; }

    /** CPU seconds of each kernel call, by shape (kernel workloads). */
    const std::map<std::string, std::vector<double>> &callSeconds() const
    {
        return callS_;
    }

  protected:
    /**
     * Time one kernel call, the round's position-th, under `span`,
     * keeping its CPU time.
     */
    template <class F>
    auto timedCall(SpanRecorder::Id span, std::size_t position,
                   const std::string &shape, F &&call)
    {
        ScopedSpan scoped(b_.rec, span);
        const std::int64_t start = cpuNowNs();
        auto result = call();
        b_.position(position, start);
        callS_[shape].push_back(b_.positionS[position].back());
        return result;
    }

    Bench &b_;
    SpanRecorder::Id inputsId_;
    SpanRecorder::Id checkId_;
    std::map<std::string, std::vector<double>> callS_;
};

// ---------------------------------------------------------------------
// pim_kernels: Table VI GEMV1, GEMV3, ADD1 through PimBlas.
// ---------------------------------------------------------------------

class PimKernels : public Workload
{
  public:
    explicit PimKernels(Bench &b)
        : Workload(b), gemvId_(b.rec.intern("stack.blas_gemv")),
          addId_(b.rec.intern("stack.blas_add")), rng_(0)
    {
    }

    void prepare() override
    {
        for (const auto &spec : kernelShapes()) {
            Shape shape{spec, {}};
            if (spec.kind == pimsim::MicroKind::Gemv) {
                InputRng w(streamSeed(b_.options.seed, Stream::Weights,
                                      shapes_.size()));
                fillFp16(w, shape.w, std::size_t{spec.m} * spec.n);
            }
            shapes_.push_back(std::move(shape));
        }
        rng_ = InputRng(streamSeed(b_.options.seed, Stream::Vectors, 0));
        system_ = std::make_unique<PimSystem>(SystemConfig::pimHbmSystem());
        blas_ = std::make_unique<pimsim::PimBlas>(*system_);
    }

    double setupSample() override
    {
        const std::int64_t start = hostNowNs();
        PimSystem system(SystemConfig::pimHbmSystem());
        pimsim::PimBlas blas(system);
        return static_cast<double>(hostNowNs() - start) / 1e9;
    }

    RoundOutcome round(unsigned index) override
    {
        RoundOutcome out;
        const DeviceCounts before = DeviceCounts::of(*system_);
        pimsim::BlasTiming sum;
        for (std::size_t k = 0; k < shapes_.size(); ++k) {
            const Shape &shape = shapes_[k];
            const bool gemv = shape.spec.kind == pimsim::MicroKind::Gemv;
            b_.untimed(inputsId_, [&] {
                if (gemv) {
                    fillFp16(rng_, x_, shape.spec.n);
                } else {
                    fillFp16(rng_, x_, shape.spec.elements);
                    fillFp16(rng_, x2_, shape.spec.elements);
                }
            });
            const pimsim::BlasTiming t =
                timedCall(gemv ? gemvId_ : addId_, k, shape.spec.name, [&] {
                    return gemv ? blas_->gemv(shape.w, shape.spec.m,
                                              shape.spec.n, x_, y_)
                                : blas_->add(x_, x2_, y_);
                });
            b_.untimed(checkId_, [&] {
                const Fp16Vector ref =
                    gemv ? pimsim::refGemv(shape.w, shape.spec.m,
                                           shape.spec.n, x_)
                         : pimsim::refAdd(x_, x2_);
                if (!bitExact(y_, ref))
                    b_.fail(1, shape.spec.name + " output not bit-exact");
                else if (t.retries != 0 || t.hostFallback)
                    b_.fail(1, shape.spec.name + " needed retries/fallback");
                else if (!(t.totalNs() > 0.0))
                    b_.fail(1, shape.spec.name + " reported no device time");
            });
            ++out.ops;
            out.simNs += t.totalNs();
            sum.commands += t.commands;
            sum.fences += t.fences;
            sum.pimOps += t.pimOps;
        }
        if (index == 0) {
            const DeviceCounts d = DeviceCounts::of(*system_) - before;
            auto &fp = b_.fingerprint;
            fp["stack.commands"] = static_cast<double>(sum.commands);
            fp["stack.fences"] = static_cast<double>(sum.fences);
            fp["pim.ops"] = static_cast<double>(sum.pimOps);
            recordDevice(fp, d);
        }
        return out;
    }

    std::string statsJson() override
    {
        std::ostringstream os;
        system_->dumpStatsJson(os);
        return os.str();
    }

    DeviceCounts device() const override { return DeviceCounts::of(*system_); }

  private:
    struct Shape
    {
        pimsim::MicroSpec spec;
        Fp16Vector w; ///< fixed weights (GEMV only)
    };

    SpanRecorder::Id gemvId_;
    SpanRecorder::Id addId_;
    InputRng rng_;
    std::vector<Shape> shapes_;
    Fp16Vector x_, x2_, y_;
    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<pimsim::PimBlas> blas_;
};

// ---------------------------------------------------------------------
// hbm_baseline: the same shapes on the HBM system through HostModel.
// ---------------------------------------------------------------------

class HbmBaseline : public Workload
{
  public:
    explicit HbmBaseline(Bench &b)
        : Workload(b), constructId_(b.rec.intern("host.model_construct")),
          gemvId_(b.rec.intern("host.gemv")),
          elemId_(b.rec.intern("host.elementwise"))
    {
    }

    void prepare() override
    {
        system_ = std::make_unique<PimSystem>(SystemConfig::hbmSystem());
    }

    double setupSample() override
    {
        const std::int64_t start = hostNowNs();
        PimSystem system(SystemConfig::hbmSystem());
        pimsim::HostModel host(system);
        return static_cast<double>(hostNowNs() - start) / 1e9;
    }

    RoundOutcome round(unsigned index) override
    {
        RoundOutcome out;
        const DeviceCounts before = DeviceCounts::of(*system_);
        {
            // A fresh model per round: its stream memo starts cold, as
            // it does in every user process.
            ScopedSpan span(b_.rec, constructId_);
            host_ = std::make_unique<pimsim::HostModel>(*system_);
        }
        double miss_sum = 0.0;
        const auto &shapes = kernelShapes();
        for (std::size_t k = 0; k < shapes.size(); ++k) {
            const auto &spec = shapes[k];
            const bool gemv = spec.kind == pimsim::MicroKind::Gemv;
            // ADD reads two FP16 operands and writes one (AppRunner's path).
            const pimsim::HostKernelResult r =
                timedCall(gemv ? gemvId_ : elemId_, k, spec.name, [&] {
                    return gemv ? host_->gemv(spec.m, spec.n, 1)
                                : host_->elementwise(4 * spec.elements,
                                                     2 * spec.elements);
                });
            b_.untimed(checkId_, [&] {
                if (!std::isfinite(r.ns) || !(r.ns > 0.0))
                    b_.fail(1, spec.name + " host time not finite/positive");
            });
            ++out.ops;
            out.simNs += r.ns;
            miss_sum += r.llcMissRate;
        }
        if (index == 0) {
            recordDevice(b_.fingerprint, DeviceCounts::of(*system_) - before);
            b_.fingerprint["host.llc_miss_ratio"] =
                miss_sum / static_cast<double>(out.ops);
        }
        return out;
    }

    std::string statsJson() override
    {
        std::ostringstream os;
        system_->dumpStatsJson(os);
        return os.str();
    }

    DeviceCounts device() const override { return DeviceCounts::of(*system_); }

  private:
    SpanRecorder::Id constructId_;
    SpanRecorder::Id gemvId_;
    SpanRecorder::Id elemId_;
    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<pimsim::HostModel> host_;
};

// ---------------------------------------------------------------------
// Engine workloads: one fresh engine and a cold service-time cache per
// round, open-loop arrivals streamed in chunks.
// ---------------------------------------------------------------------

/**
 * Span bookkeeping shared by the engine workloads: an engine call
 * during which the ServiceTimeCache grew is a service-time fill, and
 * is re-labelled `<prefix>.fill` when it closes.
 */
class EngineSpans
{
  public:
    EngineSpans(SpanRecorder &rec, const std::string &prefix)
        : rec_(rec), construct(rec.intern(prefix + ".engine_construct")),
          destroy(rec.intern(prefix + ".engine_destroy")),
          advance(rec.intern(prefix + ".engine_advance")),
          submit(rec.intern(prefix + ".engine_submit")),
          take(rec.intern(prefix + ".engine_take")),
          drain(rec.intern(prefix + ".engine_drain")),
          report(rec.intern(prefix + ".engine_report")),
          fill(rec.intern(prefix + ".fill"))
    {
    }

    void watch(const pimsim::serve::ServiceTimeCache *cache)
    {
        cache_ = cache;
        size_ = cache->size();
    }

    /** Close an engine-call span, labelling it a fill if it filled. */
    void end()
    {
        if (!rec_.enabled())
            return;
        const std::size_t size = cache_->size();
        rec_.end(size != size_ ? fill : SpanRecorder::kKeepName);
        size_ = size;
    }

  private:
    SpanRecorder &rec_;
    const pimsim::serve::ServiceTimeCache *cache_ = nullptr;
    std::size_t size_ = 0;

  public:
    const SpanRecorder::Id construct, destroy, advance, submit, take, drain,
        report, fill;
};

/** Microseconds of the nearest-rank p99 of nanosecond samples. */
double
p99Us(const std::vector<double> &ns)
{
    return percentile(ns, 99.0) / 1e3;
}

/**
 * One round of an engine workload: a fresh engine on a cold cache, a
 * fixed number of open-loop arrivals streamed in chunks (advance to the
 * arrival, then submit), completions taken after every chunk, drain,
 * report. Subclasses supply the configuration, the arrivals, and the
 * checks.
 */
template <class Engine, class Config, class Arrival>
class EngineWorkload : public Workload
{
  public:
    using Request = typename decltype(std::declval<Engine>()
                                          .takeCompletions())::value_type;
    using Report = decltype(std::declval<const Engine>().report());

    /**
     * `requests` arrivals per round, streamed in chunks of `chunk`; each
     * chunk (and the final drain) is one position of the round.
     */
    EngineWorkload(Bench &b, const std::string &prefix,
                   std::uint64_t requests, std::size_t chunk)
        : Workload(b), spans_(b.rec, prefix), requests_(requests),
          chunk_size_(chunk)
    {
    }

    double setupSample() override
    {
        const Config cfg =
            config(std::make_shared<pimsim::serve::ServiceTimeCache>());
        const std::int64_t start = hostNowNs();
        Engine engine(cfg);
        return static_cast<double>(hostNowNs() - start) / 1e9;
    }

    RoundOutcome round(unsigned index) override
    {
        {
            ScopedSpan span(b_.rec, spans_.destroy);
            engine_.reset();
        }
        cache_ = std::make_shared<pimsim::serve::ServiceTimeCache>();
        {
            ScopedSpan span(b_.rec, spans_.construct);
            engine_ = std::make_unique<Engine>(config(cache_));
        }
        spans_.watch(cache_.get());

        InputRng rng(streamSeed(b_.options.seed, Stream::Arrivals, index));
        double clock_ns = 0.0;
        std::uint64_t taken = 0;
        std::vector<Request> done;
        const auto take = [&] {
            // Drain both per-request buffers, as a long-running user
            // does; left alone they grow with every request.
            ScopedSpan span(b_.rec, spans_.take);
            done = engine_->takeCompletions();
            engine_->takeSloObservations();
            taken += done.size();
        };
        const auto pool_done = [&] {
            if (index == 0) {
                b_.untimed(checkId_, [&] {
                    for (const Request &r : done)
                        pool(r);
                });
            }
        };

        std::size_t position = 0;
        for (std::uint64_t sent = 0; sent < requests_;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunk_size_, requests_ - sent));
            b_.untimed(inputsId_, [&] {
                chunk_.resize(n);
                for (Arrival &a : chunk_) {
                    clock_ns += rng.exponential(meanGapNs());
                    a.ns = clock_ns;
                    draw(rng, a);
                }
            });
            const std::int64_t start = cpuNowNs();
            for (const Arrival &a : chunk_) {
                b_.rec.begin(spans_.advance);
                engine_->advanceTo(a.ns);
                spans_.end();
                b_.rec.begin(spans_.submit);
                submit(*engine_, a);
                spans_.end();
            }
            take();
            b_.position(position++, start);
            sent += n;
            pool_done();
        }
        const std::int64_t start = cpuNowNs();
        b_.rec.begin(spans_.drain);
        engine_->drain();
        spans_.end();
        take();
        Report report;
        {
            ScopedSpan span(b_.rec, spans_.report);
            report = engine_->report();
        }
        b_.position(position, start);
        pool_done();
        b_.untimed(checkId_, [&] { check(report, taken); });
        if (index == 0)
            fingerprint(report, cache_->size());
        return {requests_, report.horizonNs};
    }

  protected:
    virtual Config
    config(std::shared_ptr<pimsim::serve::ServiceTimeCache> cache) const = 0;
    /** Mean simulated gap between arrivals (Poisson). */
    virtual double meanGapNs() const = 0;
    /** Fill in an arrival's payload (its time is already drawn). */
    virtual void draw(InputRng &rng, Arrival &a) = 0;
    virtual void submit(Engine &engine, const Arrival &a) = 0;
    /** First round only: pool one completion's simulated latencies. */
    virtual void pool(const Request &r) = 0;
    /** Every request completed and the report reconciles. */
    virtual void check(const Report &report, std::uint64_t taken) = 0;
    /** Record the first round's simulated counts. */
    virtual void fingerprint(const Report &report, std::size_t fills) = 0;

    /** Count requests that did not complete as failed operations. */
    std::uint64_t countLost(const char *what, std::uint64_t completed,
                            std::uint64_t rejected, std::uint64_t shed,
                            std::uint64_t timed_out)
    {
        const std::uint64_t lost =
            requests_ - std::min(requests_, completed);
        if (lost != 0)
            b_.fail(lost, std::string(what) + ": " +
                              std::to_string(rejected) + " rejected, " +
                              std::to_string(shed) + " shed, " +
                              std::to_string(timed_out) + " timed out");
        return lost;
    }

    EngineSpans spans_;
    const std::uint64_t requests_;
    const std::size_t chunk_size_;
    std::shared_ptr<pimsim::serve::ServiceTimeCache> cache_;
    std::unique_ptr<Engine> engine_;
    std::vector<Arrival> chunk_;
};

// ---------------------------------------------------------------------
// serve_open_loop: ServingEngine in bench_serving's shape.
// ---------------------------------------------------------------------

struct ServeArrival
{
    double ns = 0.0;
    unsigned tenant = 0;
};

class ServeOpenLoop
    : public EngineWorkload<pimsim::serve::ServingEngine,
                            pimsim::serve::ServeConfig, ServeArrival>
{
  public:
    static constexpr double kLoad = 0.9;

    explicit ServeOpenLoop(Bench &b) : EngineWorkload(b, "serve", 1'000'000, 1u << 16)
    {
    }

    void prepare() override
    {
        // Batch-1 capacity of the shared 16-channel device, measured on
        // a cache of its own the way bench_serving calibrates, so every
        // round's cache still starts cold.
        auto cache = std::make_shared<pimsim::serve::ServiceTimeCache>();
        pimsim::serve::ShardServiceModel probe(system(), 16, cache);
        double svc_ns = 0.0;
        for (const auto &t : tenants())
            svc_ns += probe.serviceNs(t.app, 1);
        meanSvcNs_ = svc_ns / static_cast<double>(tenants().size());
        capacityRps_ = 1e9 / meanSvcNs_;
    }

    std::string statsJson() override
    {
        std::ostringstream os;
        engine_->system().dumpStatsJson(os);
        return os.str();
    }

  protected:
    pimsim::serve::ServeConfig
    config(std::shared_ptr<pimsim::serve::ServiceTimeCache> cache) const override
    {
        pimsim::serve::ServeConfig c;
        c.system = system();
        c.tenants = tenants();
        c.queue.depth = 128;
        c.sched.policy = pimsim::serve::SchedPolicy::BatchTimeout;
        c.sched.maxBatch = 8;
        c.sched.batchTimeoutNs = meanSvcNs_;
        c.timingCache = std::move(cache);
        // bench_serving's histogram: 2 ms x 16384 buckets.
        c.histBucketNs = 2'000'000;
        c.histBuckets = 16384;
        return c;
    }

    double meanGapNs() const override { return 1e9 / (kLoad * capacityRps_); }

    void draw(InputRng &rng, ServeArrival &a) override
    {
        a.tenant = static_cast<unsigned>(rng.next() & 1);
    }

    void submit(pimsim::serve::ServingEngine &engine,
                const ServeArrival &a) override
    {
        engine.submit(a.tenant, a.ns);
    }

    void pool(const pimsim::serve::ServeRequest &r) override
    {
        queueNs_.push_back(r.queueNs());
        e2eNs_.push_back(r.latencyNs());
    }

    /** Every request completes, on PIM, and the books balance. */
    void check(const pimsim::serve::ServeReport &report,
               std::uint64_t taken) override
    {
        const auto &t = report.total;
        const std::uint64_t lost =
            countLost("serve", t.completed, t.rejected, t.shed, t.timedOut);
        bool books = t.submitted == requests_ && taken == t.completed &&
                     t.fallbackCompleted == 0 && t.retries == 0;
        for (const auto &tenant : report.tenants) {
            books = books && tenant.completed + tenant.shed +
                                     tenant.timedOut + tenant.rejected ==
                                 tenant.submitted;
        }
        if (!books && lost == 0)
            b_.fail(1, "serve: report does not reconcile");
    }

    void fingerprint(const pimsim::serve::ServeReport &report,
                     std::size_t fills) override
    {
        auto &fp = b_.fingerprint;
        fp["serve.fill_entries"] = static_cast<double>(fills);
        fp["serve.completed"] = static_cast<double>(report.total.completed);
        fp["serve.rejected"] = static_cast<double>(report.total.rejected);
        fp["serve.batches"] = static_cast<double>(report.total.batches);
        fp["serve.mean_batch"] =
            ratio(static_cast<double>(report.total.completed),
                  static_cast<double>(report.total.batches));
        fp["serve.sim_queue_p99_us"] = p99Us(queueNs_);
        fp["serve.sim_e2e_p99_us"] = p99Us(e2eNs_);
        fp["serve.capacity_rps"] = capacityRps_;
        queueNs_ = {};
        e2eNs_ = {};
    }

  private:
    static SystemConfig system()
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.numStacks = 1; // one stack, 16 pseudo channels
        return c;
    }

    static std::vector<pimsim::serve::TenantSpec> tenants()
    {
        return {pimsim::serve::TenantSpec{"gnmt", pimsim::gnmtApp(), 1.0},
                pimsim::serve::TenantSpec{"ds2", pimsim::ds2App(), 1.0}};
    }

    double meanSvcNs_ = 0.0; ///< mean batch-1 service time (batch timeout)
    double capacityRps_ = 0.0;
    std::vector<double> queueNs_, e2eNs_;
};

// ---------------------------------------------------------------------
// llm_decode: LlmEngine in bench_llm_serving's decode-heavy regime.
// ---------------------------------------------------------------------

struct LlmArrival
{
    double ns = 0.0;
    unsigned prompt = 0;
    unsigned output = 0;
};

class LlmDecode
    : public EngineWorkload<pimsim::llm::LlmEngine,
                            pimsim::llm::LlmEngineConfig, LlmArrival>
{
  public:
    static constexpr double kArrivalRps = 25.0;

    explicit LlmDecode(Bench &b) : EngineWorkload(b, "llm", 40'000, 2'000) {}

    std::string statsJson() override
    {
        std::ostringstream os;
        engine_->writeStats(os);
        return os.str();
    }

  protected:
    pimsim::llm::LlmEngineConfig
    config(std::shared_ptr<pimsim::serve::ServiceTimeCache> cache) const override
    {
        pimsim::llm::LlmEngineConfig c;
        c.system = SystemConfig::pimHbmSystem();
        c.system.numStacks = 1; // one stack: 16 pseudo channels
        c.decoder = pimsim::llm::DecoderSpec::tiny();
        c.tenants = {pimsim::llm::LlmTenantSpec{"prod", 0.0, 0}};
        c.batcher.policy = pimsim::llm::BatchPolicy::Continuous;
        c.batcher.maxBatch = 8;
        c.batcher.maxQueue = 512;
        c.timingCache = std::move(cache);
        return c;
    }

    double meanGapNs() const override { return 1e9 / kArrivalRps; }

    void draw(InputRng &rng, LlmArrival &a) override
    {
        // bench_llm_serving's decode-heavy lengths.
        a.prompt = lognormalTokens(rng, 64.0, 0.6, 8, 256);
        a.output = lognormalTokens(rng, 192.0, 0.6, 16, 640);
        tokensRequested_ += a.output;
    }

    void submit(pimsim::llm::LlmEngine &engine, const LlmArrival &a) override
    {
        engine.submit(0, a.ns, a.prompt, a.output);
    }

    void pool(const pimsim::llm::LlmRequest &r) override
    {
        ttftNs_.push_back(r.firstTokenNs - r.arrivalNs);
    }

    /**
     * Every request completes with every token, and KV balances. Also
     * counts the round's iterations (the per-iteration rate's base).
     */
    void check(const pimsim::llm::LlmReport &report,
               std::uint64_t taken) override
    {
        const auto &t = report.total;
        const std::uint64_t lost =
            countLost("llm", t.completed, t.rejected, t.shed, t.timedOut);
        const bool books =
            t.submitted == requests_ && taken == t.completed &&
            t.completed + t.shed + t.timedOut + t.rejected == t.submitted &&
            t.tokensOut == tokensRequested_ &&
            report.kvBlocksAllocated == report.kvBlocksFreed &&
            report.faultedIterations == 0;
        if (!books && lost == 0)
            b_.fail(1, "llm: report does not reconcile");
        tokensRequested_ = 0;
        b_.iterations += report.iterations;
    }

    void fingerprint(const pimsim::llm::LlmReport &report,
                     std::size_t fills) override
    {
        auto &fp = b_.fingerprint;
        fp["llm.fill_entries"] = static_cast<double>(fills);
        fp["llm.iterations"] = static_cast<double>(report.iterations);
        fp["llm.mean_batch"] = report.meanBatch;
        fp["llm.tokens_out"] = static_cast<double>(report.total.tokensOut);
        fp["llm.kv_peak_blocks"] =
            static_cast<double>(report.kvPeakResidentBlocks);
        fp["llm.preemptions"] = static_cast<double>(report.total.preemptions);
        fp["llm.sim_ttft_p99_us"] = p99Us(ttftNs_);
        ttftNs_ = {};
    }

  private:
    std::uint64_t tokensRequested_ = 0; ///< output tokens of the round
    std::vector<double> ttftNs_;
};

// ---------------------------------------------------------------------
// Phases and metrics.
// ---------------------------------------------------------------------

struct PhaseOutcome
{
    double timedS = 0.0;
    std::uint64_t ops = 0;
    double simNs = 0.0;
    unsigned rounds = 0;
    DeviceCounts device;
    std::uint64_t iterations = 0;
    /** Operations per timed second of each round. */
    std::vector<double> roundRates;
    /** CPU seconds of one typical round (roundCostS()). */
    double roundCostS = 0.0;
    /** Round positions, and the fewest rounds any position was timed. */
    std::size_t positions = 0;
    std::size_t minSamples = 0;
};

/**
 * Whole rounds until the timed phase reaches `seconds`, then the stats
 * dump. Timed = wall time of the phase minus the benchmark's own input
 * generation and checks.
 */
PhaseOutcome
runPhase(Workload &w, Bench &b, double seconds, unsigned &next_round)
{
    const SpanRecorder::Id round_id = b.rec.intern("bench.round");
    const SpanRecorder::Id stats_id = b.rec.intern("common.stats_json");
    const SpanRecorder::Id check_id = b.rec.intern("bench.check");
    const SpanRecorder::Id setup_id = b.rec.intern("bench.setup_samples");
    const SpanRecorder::Id reference_id = b.rec.intern("bench.reference");
    PhaseOutcome out;
    b.untimedNs = 0;
    b.iterations = 0;
    b.positionS.clear();
    const DeviceCounts before = w.device();
    const std::int64_t start = hostNowNs();
    const auto timed_s = [&] {
        return static_cast<double>(hostNowNs() - start - b.untimedNs) / 1e9;
    };
    do {
        const double round_start = timed_s();
        b.rec.begin(round_id);
        const RoundOutcome r = w.round(next_round++);
        b.rec.end();
        out.roundRates.push_back(static_cast<double>(r.ops) /
                                 (timed_s() - round_start));
        if (next_round == 1)
            b.firstRoundRssMb = peakRssMb();
        out.ops += r.ops;
        out.simNs += r.simNs;
        ++out.rounds;
        b.untimed(setup_id, [&] {
            for (unsigned i = 0; i < kSetupSamplesPerRound; ++i)
                b.setupS.push_back(w.setupSample());
        });
        b.untimed(reference_id, [&] {
            for (unsigned i = 0; i < kReferencePassesPerRound; ++i)
                b.reference.pass();
        });
    } while (timed_s() < seconds);
    std::string dump;
    {
        ScopedSpan span(b.rec, stats_id);
        dump = w.statsJson();
    }
    b.untimed(check_id, [&] {
        std::string error;
        if (!pimsim::validateJson(dump, &error))
            b.fail(1, "stats dump is not valid JSON: " + error);
    });
    out.timedS = timed_s();
    out.roundCostS = roundCostS(b.positionS);
    out.positions = b.positionS.size();
    out.minSamples = out.rounds;
    for (const auto &seconds : b.positionS)
        out.minSamples = std::min(out.minSamples, seconds.size());
    out.device = w.device() - before;
    out.iterations = b.iterations;
    b.attempted += out.ops;
    return out;
}

struct LayerSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<LayerSpec> &
layerSpecs()
{
    static const std::vector<LayerSpec> specs = {
        {"stack.blas_gemv.busy_s", "s"},
        {"stack.blas_gemv.calls", "count"},
        {"stack.blas_add.busy_s", "s"},
        {"stack.blas_add.calls", "count"},
        {"stack.commands", "count"},
        {"stack.fences", "count"},
        {"pim.triggers", "count"},
        {"pim.ops", "count"},
        {"pim.host_ns_per_trigger", "ns"},
        {"mem.requests", "count"},
        {"mem.row_hit_ratio", "ratio"},
        {"mem.host_ns_per_request", "ns"},
        {"dram.acts", "count"},
        {"dram.refreshes", "count"},
        {"sim.cycles", "count"},
        {"host.gemv.busy_s", "s"},
        {"host.gemv.calls", "count"},
        {"host.elementwise.busy_s", "s"},
        {"host.elementwise.calls", "count"},
        {"host.llc_miss_ratio", "ratio"},
        {"serve.fill_s", "s"},
        {"serve.fill_entries", "count"},
        {"serve.engine_submit.busy_s", "s"},
        {"serve.engine_submit.calls", "count"},
        {"serve.engine_advance.busy_s", "s"},
        {"serve.engine_advance.calls", "count"},
        {"serve.engine_drain.busy_s", "s"},
        {"serve.host_ns_per_request", "ns"},
        {"serve.completed", "count"},
        {"serve.rejected", "count"},
        {"serve.batches", "count"},
        {"serve.mean_batch", "req/batch"},
        {"serve.sim_queue_p99_us", "us"},
        {"serve.sim_e2e_p99_us", "us"},
        {"llm.fill_s", "s"},
        {"llm.fill_entries", "count"},
        {"llm.engine_submit.busy_s", "s"},
        {"llm.engine_advance.busy_s", "s"},
        {"llm.engine_advance.calls", "count"},
        {"llm.host_ns_per_iteration", "ns"},
        {"llm.iterations", "count"},
        {"llm.mean_batch", "req/iter"},
        {"llm.tokens_out", "count"},
        {"llm.kv_peak_blocks", "count"},
        {"llm.preemptions", "count"},
        {"llm.sim_ttft_p99_us", "us"},
        {"common.stats_json.busy_s", "s"},
        {"bench.round.self_s", "s"},
        {"bench.inputs.busy_s", "s"},
        {"bench.check.busy_s", "s"},
        {"bench.span_coverage", "ratio"},
        {"bench.trace_overhead_ratio", "ratio"},
    };
    return specs;
}

/** Per-layer values of the traced phase. */
std::vector<Metric>
layerMetrics(const Bench &b, const PhaseOutcome &untraced,
             const PhaseOutcome &traced)
{
    const auto totals = b.rec.totalsByName();
    const auto span = [&](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };
    const auto busy = [&](const std::string &name) {
        return static_cast<double>(span(name).busyNs);
    };

    std::map<std::string, double> v = b.fingerprint;
    const double kernel_ns = busy("stack.blas_gemv") + busy("stack.blas_add");
    const double device_ns =
        kernel_ns + busy("host.gemv") + busy("host.elementwise");
    v["pim.host_ns_per_trigger"] =
        ratio(kernel_ns, static_cast<double>(traced.device.triggers));
    v["mem.host_ns_per_request"] =
        ratio(device_ns, static_cast<double>(traced.device.requests));
    v["serve.fill_s"] = busy("serve.fill") / 1e9;
    v["serve.host_ns_per_request"] =
        ratio(busy("serve.engine_submit") + busy("serve.engine_advance") +
                  busy("serve.engine_drain"),
              static_cast<double>(traced.ops));
    v["llm.fill_s"] = busy("llm.fill") / 1e9;
    v["llm.host_ns_per_iteration"] =
        ratio(busy("llm.engine_submit") + busy("llm.engine_advance") +
                  busy("llm.engine_drain"),
              static_cast<double>(traced.iterations));
    v["bench.round.self_s"] =
        static_cast<double>(span("bench.round").selfNs) / 1e9;

    double covered_ns = 0.0;
    for (const auto &[name, t] : totals) {
        if (name.rfind("bench.", 0) != 0)
            covered_ns += static_cast<double>(t.busyNs);
    }
    v["bench.span_coverage"] = ratio(covered_ns, traced.timedS * 1e9);
    v["bench.trace_overhead_ratio"] =
        ratio(traced.timedS / static_cast<double>(traced.ops),
              untraced.timedS / static_cast<double>(untraced.ops));

    for (const auto &[name, t] : totals) {
        v[name + ".busy_s"] = static_cast<double>(t.busyNs) / 1e9;
        v[name + ".calls"] = static_cast<double>(t.calls);
    }

    std::vector<Metric> out;
    for (const LayerSpec &spec : layerSpecs()) {
        const auto it = v.find(spec.name);
        out.push_back({spec.name, it == v.end() ? 0.0 : it->second,
                       spec.unit});
    }
    return out;
}

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0,
       double d = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
    return buf;
}

void
describePhase(Result &res, const char *label, const PhaseOutcome &p)
{
    res.notes.push_back(std::string(label) +
                        format(": %.3f s timed, %.0f rounds, %.0f ops, "
                               "%.6g sim ns",
                               p.timedS, p.rounds,
                               static_cast<double>(p.ops), p.simNs));
    std::string rates = "  ops/s by round:";
    for (double r : p.roundRates)
        rates += format(" %.6g", r);
    res.notes.push_back(rates);
    res.notes.push_back(format("  typical round: %.6f CPU s (quantile %.2f "
                               "of %.0f positions over >= %.0f rounds)",
                               p.roundCostS, kRoundCostQuantile,
                               static_cast<double>(p.positions),
                               static_cast<double>(p.minSamples)));
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Bench &b)
{
    if (name == "pim_kernels")
        return std::make_unique<PimKernels>(b);
    if (name == "hbm_baseline")
        return std::make_unique<HbmBaseline>(b);
    if (name == "serve_open_loop")
        return std::make_unique<ServeOpenLoop>(b);
    if (name == "llm_decode")
        return std::make_unique<LlmDecode>(b);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "pim_kernels", "hbm_baseline", "serve_open_loop", "llm_decode"};
    return names;
}

Result
runWorkload(const Options &options)
{
    pimsim::setQuiet(true);
    Bench b(options);
    const std::unique_ptr<Workload> w = makeWorkload(options.workload, b);
    Result res;

    const std::int64_t prepare_start = hostNowNs();
    w->prepare();
    res.notes.push_back(format(
        "prepare (inputs, calibration): %.3f s",
        static_cast<double>(hostNowNs() - prepare_start) / 1e9));
    for (unsigned i = 0; i < kSetupSamplesBefore; ++i)
        b.setupS.push_back(w->setupSample());
    for (unsigned i = 0; i < kReferencePassesBefore; ++i)
        b.reference.pass();

    unsigned next_round = 0;
    const auto setup_quartiles = [&] {
        const auto q = quartiles(b.setupS);
        res.notes.push_back(format("setup: median %.6f s, quartiles %.6f .. "
                                   "%.6f s over %.0f constructions",
                                   q[1], q[0], q[2],
                                   static_cast<double>(b.setupS.size())));
        return q;
    };
    if (!options.trace) {
        const PhaseOutcome p = runPhase(*w, b, options.seconds, next_round);
        const auto sq = setup_quartiles();
        describePhase(res, "phase", p);
        res.notes.push_back(format("phase means: %.6g req/s, %.6g sim-ns/s",
                                   static_cast<double>(p.ops) / p.timedS,
                                   p.simNs / p.timedS));
        // Rates of a typical round (every round makes the same number of
        // operations and covers about the same simulated time), on a
        // quiet machine: the round's cost over the slow factor.
        const double slow = b.reference.slowFactor(kRoundCostQuantile);
        const double quiet_round_s = p.roundCostS / slow;
        const double rounds = static_cast<double>(p.rounds);
        res.notes.push_back(format(
            "reference: chase %.6f s, compute %.6f s (q%.2f of %.0f "
            "passes)",
            quantile(b.reference.chaseS(), kRoundCostQuantile),
            quantile(b.reference.computeS(), kRoundCostQuantile),
            kRoundCostQuantile,
            static_cast<double>(b.reference.chaseS().size())) +
                            format(": slow factor %.4f", slow));
        res.notes.push_back(format(
            "typical round as measured: %.6g req/s, %.6g sim-ns/s",
            static_cast<double>(p.ops) / rounds / p.roundCostS,
            p.simNs / rounds / p.roundCostS));
        res.metrics = {
            {"requests_per_s",
             static_cast<double>(p.ops) / rounds / quiet_round_s, "req/s"},
            {"sim_ns_per_s", p.simNs / rounds / quiet_round_s, "sim-ns/s"},
            {"setup_s", sq[1], "s"},
            {"peak_rss_mb", b.firstRoundRssMb, "MB"},
        };
    } else {
        // Half the time untraced, half traced: the ratio of their
        // per-operation times is the tracing overhead.
        const PhaseOutcome u =
            runPhase(*w, b, options.seconds / 2.0, next_round);
        b.rec.setEnabled(true);
        const PhaseOutcome t =
            runPhase(*w, b, options.seconds / 2.0, next_round);
        setup_quartiles();
        describePhase(res, "untraced phase", u);
        describePhase(res, "traced phase", t);
        res.metrics = layerMetrics(b, u, t);
        res.notes.push_back("spans (traced phase): name calls busy_s self_s");
        for (const auto &[name, tot] : b.rec.totalsByName()) {
            if (tot.calls == 0)
                continue;
            char line[256];
            std::snprintf(line, sizeof(line), "  %-28s %10llu %12.6f %12.6f",
                          name.c_str(),
                          static_cast<unsigned long long>(tot.calls),
                          static_cast<double>(tot.busyNs) / 1e9,
                          static_cast<double>(tot.selfNs) / 1e9);
            res.notes.push_back(line);
        }
        if (!options.spansOut.empty()) {
            std::ofstream os(options.spansOut);
            b.rec.writeChromeTrace(os);
            res.notes.push_back("spans written to " + options.spansOut +
                                format(" (%.0f kept, %.0f dropped)",
                                       static_cast<double>(
                                           b.rec.spans().size()),
                                       static_cast<double>(b.rec.dropped())));
        }
    }

    for (const auto &[shape, secs] : w->callSeconds()) {
        const auto q = secs.size() >= 2 ? quartiles(secs)
                                         : std::array<double, 3>{};
        res.notes.push_back(shape + format(": %.0f calls, median %.4f s, "
                                           "quartiles %.4f .. %.4f s",
                                           static_cast<double>(secs.size()),
                                           q[1], q[0], q[2]) +
                            format(", min %.4f s",
                                   *std::min_element(secs.begin(), secs.end())));
    }
    // The device counts print on every workload (0 where the workload
    // drives no device directly); the engine counts where they apply.
    std::map<std::string, double> fingerprint = b.fingerprint;
    for (const char *key : {"sim.cycles", "mem.requests", "pim.triggers"})
        fingerprint.emplace(key, 0.0);
    for (const auto &[key, value] : fingerprint)
        res.fingerprint.push_back({key, value, ""});
    res.attempted = b.attempted;
    res.failed = b.failed;
    res.failures = b.failures;
    return res;
}

} // namespace perfbench
