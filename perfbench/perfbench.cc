/**
 * @file
 * mqxlib's repository benchmark (BENCHMARK.json). run.py builds this
 * binary and runs one workload per process:
 *
 *     mqx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads, and why each is in the benchmark:
 *
 *  - svc_polymul: open loop, polymul without deadline, n=1024, 4 x 40-bit
 *    channels (131 KB frames), at fixed absolute offered rates.
 *    Per-request overhead (wire, admission, coalescing, socket)
 *    dominates, and coalesced batches reach polymulNegacyclicBatch. The
 *    service-vs-bare-engine gap lives here; kernel work at n=1024
 *    should barely move it.
 *  - svc_deadline_mix: open loop, every request carries a 50 ms
 *    deadline; 3:1 polymul (n=4096, k=4) to Fma with 8 pairs (4 MiB
 *    frames). Bulk frames stress decode and validateResidues, deadline
 *    polymuls never coalesce, Fma runs the interleaved batch kernels. A
 *    gain for small coalesced requests that costs large or deadline-bound
 *    ones shows up here.
 *  - lib_polymul_n64k: closed loop, one caller thread, in-process
 *    Engine::polymulNegacyclicInto at n=65536 with 4 x 124-bit channels.
 *    No network: transform-bound, where the default blocked NTT plan is
 *    slower than the direct one, so NTT work moves this workload and net
 *    changes should leave it unchanged.
 *
 * --trace 0 prints the end-to-end metrics, measured with the library's
 * span layer switched off. --trace 1 prints the per-layer metrics: it
 * repeats the operating point with telemetry on, times calls into the
 * public functions of each layer (net wire/client/server, engine, rns,
 * ntt) from this file, and reports the traced-vs-untraced difference
 * as trace.overhead_frac.
 *
 * Every result is checked word for word against a threads=1 Engine
 * reference computed at start-up; any mismatch, unclean drain or leaked
 * workspace lease makes the run exit non-zero. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/rng.h"
#include "core/backend.h"
#include "core/cpu_features.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ntt/ntt.h"
#include "ntt/plan.h"
#include "rns/rns.h"
#include "sol/sol_model.h"
#include "telemetry/telemetry.h"

#ifndef MQX_PERFBENCH_BUILD_TYPE
#define MQX_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mqx {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed operating points. The service rates are absolute, sized on a
// 4-vCPU Xeon @ 2.1 GHz guest (AVX-512 + IFMA): there svc_polymul meets
// its 10 ms p99 SLO to ~3900-5000 req/s and serves ~4200 OK/s at 6000
// offered, and svc_deadline_mix meets 50 ms to ~460-560 req/s, beyond
// which deadline misses collapse goodput. Nominal and high sit well below
// capacity, so they should see no failures; overload sits above it.
// BENCHMARK.json's workload lines repeat these numbers.
// ---------------------------------------------------------------------------

constexpr size_t kEngineThreads = 4;
/** Open-loop connections; each has one sender and one receiver thread,
 *  so the load generator runs 2 x kConnections = 4 threads. */
constexpr int kConnections = 2;

struct SvcConfig
{
    const char* name;
    uint32_t n;
    net::BasisSpec spec;
    double slo_ms;
    uint64_t deadline_ns; ///< per-request budget; 0 = none
    unsigned fma_in_4;    ///< of every 4 requests, how many are Fma
    uint32_t fma_pairs;
    double nominal_rps, high_rps, overload_rps;
    /** Capacity ladder: ladder_lo * ladder_ratio^i, up to ladder_hi. */
    double ladder_lo, ladder_hi, ladder_ratio;
};

constexpr SvcConfig kSvcPolymul{
    "svc_polymul", 1024, {40, 12, 4}, 10.0, 0, 0, 0,
    1500, 2000, 6000, 600, 6000, 1.04};

constexpr SvcConfig kSvcDeadlineMix{
    "svc_deadline_mix", 4096, {40, 13, 4}, 50.0, 50'000'000, 1, 8,
    200, 300, 600, 100, 1000, 1.04};

struct LibConfig
{
    const char* name;
    size_t n;
    int bits, two_adicity, channels;
};

constexpr LibConfig kLibPolymul{"lib_polymul_n64k", 65536, 124, 17, 4};

/** Operand pool sizes (distinct seeded requests cycled by the load). */
constexpr size_t kSvcPolymulPool = 16;
constexpr size_t kSvcFmaPool = 4;
constexpr size_t kLibPool = 4;
/** Samples a tail estimate reads (quietestSamples): ten beyond p99. */
constexpr size_t kTailSamples = 1000;
/** Consecutive lib ops per window. */
constexpr size_t kLibWindow = 64;

/** Set-up repetitions; setup_s is their median. */
constexpr int kSvcSetupReps = 9;
constexpr int kLibSetupReps = 5;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

uint64_t
nowNs()
{
    return telemetry::nowNs();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/**
 * Samples of the quietest chunks: chunks ranked by their own p99,
 * pooled from the lowest until the pool holds at least kTailSamples (or
 * every chunk).
 * Contention from other tenants of a shared host only ever adds
 * latency, and comes in bursts that cover some chunks and not others,
 * sometimes most of a run; a slowdown of the program itself moves every
 * chunk, so it moves this pool too.
 */
std::vector<double>
quietestSamples(const std::vector<const std::vector<double>*>& chunks)
{
    std::vector<std::pair<double, const std::vector<double>*>> ranked;
    for (const std::vector<double>* c : chunks)
        ranked.emplace_back(quantile(*c, 0.99), c);
    std::sort(ranked.begin(), ranked.end());
    std::vector<double> out;
    for (size_t i = 0; i < ranked.size() && out.size() < kTailSamples; ++i)
        out.insert(out.end(), ranked[i].second->begin(),
                   ranked[i].second->end());
    return out;
}

uint64_t
mix64(uint64_t a, uint64_t b)
{
    SplitMix64 r(a ^ (b * 0x9e3779b97f4a7c15ull));
    return r.next();
}

/** Time @p reps calls of @p f (after one warm-up); returns each in us. */
std::vector<double>
timeCallsUs(int reps, const std::function<void()>& f)
{
    f();
    std::vector<double> us;
    us.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const uint64_t t0 = nowNs();
        f();
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return us;
}

/** Reps that fit @p budget_s for a call of about @p est_us, in [lo, hi]. */
int
repsFor(double budget_s, double est_us, int lo, int hi)
{
    const double r = budget_s * 1e6 / std::max(est_us, 1.0);
    return static_cast<int>(std::clamp(r, static_cast<double>(lo),
                                       static_cast<double>(hi)));
}

double
peakRssMib()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

bool
sameChannels(const std::vector<ResidueVector>& got,
             const rns::RnsPolynomial& want)
{
    if (got.size() != want.basis().size())
        return false;
    for (size_t c = 0; c < got.size(); ++c) {
        if (got[c] != want.channel(c))
            return false;
    }
    return true;
}

bool
samePoly(const rns::RnsPolynomial& got, const rns::RnsPolynomial& want)
{
    if (got.n() != want.n() || got.basis().size() != want.basis().size())
        return false;
    for (size_t c = 0; c < got.basis().size(); ++c) {
        if (got.channel(c) != want.channel(c))
            return false;
    }
    return true;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) >= 0x20) {
            out += ch;
        }
    }
    return out;
}

/** A run's metrics, printed as lines and as the final JSON object. */
class Report
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit,
        const std::string& note = "")
    {
        if (!std::isfinite(value))
            value = 0;
        entries_.push_back({name, value, unit, note});
    }

    void
    print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        for (const Entry& e : entries_)
            std::printf("metric %-34s = %.6g %s%s%s\n", e.name.c_str(),
                        e.value, e.unit.c_str(), e.note.empty() ? "" : "  ",
                        e.note.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < entries_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", entries_[i].name.c_str(),
                        entries_[i].value, entries_[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Entry> entries_;
};

/** Hard failure: the run prints no result and exits non-zero. */
struct RunFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Per-layer microbenchmarks shared by every workload (engine, rns, ntt).
// ---------------------------------------------------------------------------

/**
 * ntt layer on channel 0 of @p input (its length, the first prime of
 * @p basis): default vs best direct forward, inverse, the interleaved
 * batch kernel, and the computed bytes swept against the DRAM floor.
 */
void
measureNtt(const rns::RnsBasis& basis, const rns::RnsPolynomial& input,
           Backend backend, double budget_s, Report& rep)
{
    const size_t n = input.n();
    const Modulus mod(basis.prime(0).q);
    const ntt::NttPlan plan(mod, n);
    const ntt::NttPlan direct(mod, n, 0);
    ResidueVector out(n), back(n), scratch(n);
    const DConstSpan in = input.channel(0).span();

    auto fwd = [&](const ntt::NttPlan& p, StageFusion f) {
        ntt::forward(p, backend, in, out.span(), scratch.span(),
                     MulAlgo::Schoolbook, Reduction::ShoupLazy, f);
    };
    const double est = timeCallsUs(1, [&] { fwd(plan, StageFusion::Auto); })
                           .front();
    const int reps = repsFor(budget_s / 5, est, 5, 400);
    const double fwd_us = quantile(
        timeCallsUs(reps, [&] { fwd(plan, StageFusion::Auto); }), 0.5);
    fwd(plan, StageFusion::Auto);
    const ResidueVector evals = out;
    const double inv_us = quantile(timeCallsUs(reps,
                                               [&] {
                                                   ntt::inverse(
                                                       plan, backend,
                                                       evals.span(),
                                                       back.span(),
                                                       scratch.span());
                                               }),
                                   0.5);
    if (back != input.channel(0))
        throw RunFailure("ntt: inverse(forward(x)) != x");
    double best_us = 0;
    for (StageFusion f : {StageFusion::Radix2, StageFusion::Radix4}) {
        const double us = quantile(
            timeCallsUs(reps, [&] { fwd(direct, f); }), 0.5);
        if (out != evals)
            throw RunFailure("ntt: direct plan disagrees with default");
        best_us = best_us == 0 ? us : std::min(best_us, us);
    }

    // Interleaved batch forward at IL lanes, n = 4096.
    constexpr size_t kBatchN = 4096;
    const size_t il = ntt::batchInterleave(backend);
    const ntt::NttPlan bplan(mod, kBatchN);
    ResidueVector bin(il * kBatchN), bout(il * kBatchN),
        bscratch(il * kBatchN);
    SplitMix64 rng(0x5eed);
    for (size_t i = 0; i < bin.size(); ++i)
        bin.set(i, rng.nextBelow(mod.value()));
    double batch_us = 0;
    if (ntt::batchSupported(bplan)) {
        const double est_b = timeCallsUs(1, [&] {
                                ntt::forwardBatch(bplan, backend, il,
                                                  bin.span(), bout.span(),
                                                  bscratch.span());
                            }).front();
        batch_us = quantile(
            timeCallsUs(repsFor(budget_s / 5, est_b, 5, 400),
                        [&] {
                            ntt::forwardBatch(bplan, backend, il, bin.span(),
                                              bout.span(), bscratch.span());
                        }),
            0.5);
    }

    const StageFusion resolved =
        ntt::resolveStageFusion(backend, n, StageFusion::Auto);
    const size_t swept = plan.bytesSweptPerTransform(resolved);
    const double floor_ns =
        sol::dramFloorNs(swept, sol::intelXeon8352Y());
    rep.add("ntt.fwd_us", fwd_us, "us",
            "default plan, n=" + std::to_string(n) +
                (plan.blocked() ? " (blocked)" : " (direct)"));
    rep.add("ntt.inv_us", inv_us, "us");
    rep.add("ntt.best_direct_us", best_us, "us",
            "min(radix2, radix4) forward, l2_budget=0");
    rep.add("ntt.default_over_best", fwd_us / best_us, "ratio");
    rep.add("ntt.batch_fwd_us", batch_us, "us",
            "forwardBatch, IL=" + std::to_string(il) + ", n=4096");
    rep.add("ntt.bytes_swept", static_cast<double>(swept), "B_computed",
            "computed: NttPlan::bytesSweptPerTransform");
    rep.add("ntt.sol_frac", floor_ns / (fwd_us * 1e3), "ratio",
            "sol::dramFloorNs(Xeon 8352Y) / measured forward");
}

/** rns layer: median us of one serial polymulChannel (channel 0). */
double
measureRnsChannel(engine::Engine& eng, const rns::RnsPolynomial& a,
                  const rns::RnsPolynomial& b, double budget_s)
{
    const rns::RnsBasis& basis = a.basis();
    auto tables = eng.planCache().getNegacyclic(basis.prime(0), a.n());
    ntt::NegacyclicWorkspacePool workspaces;
    rns::RnsPolynomial c(basis, a.n());
    auto call = [&] {
        rns::detail::polymulChannel(eng.backend(), basis, 0, tables,
                                    workspaces, a, b, c);
    };
    const double est = timeCallsUs(1, call).front();
    return quantile(timeCallsUs(repsFor(budget_s, est, 5, 400), call), 0.5);
}

void
addPlanAndPool(engine::Engine& eng, const engine::ThreadPool::Stats& before,
               uint64_t window_ns, Report& rep)
{
    const engine::ThreadPool::Stats after = eng.pool().stats();
    uint64_t idle = 0;
    for (size_t w = 0; w < after.worker_idle_ns.size(); ++w)
        idle += after.worker_idle_ns[w] -
                (w < before.worker_idle_ns.size() ? before.worker_idle_ns[w]
                                                  : 0);
    const double workers =
        static_cast<double>(std::max<size_t>(after.worker_idle_ns.size(), 1));
    rep.add("pool.idle_frac",
            static_cast<double>(idle) /
                (workers * static_cast<double>(std::max<uint64_t>(
                               window_ns, 1))),
            "ratio", "worker idle / (workers x window)");
    rep.add("pool.steals", static_cast<double>(after.steals - before.steals),
            "count");
    const engine::PlanCache::Stats ps = eng.planCache().stats();
    rep.add("plan.builds", static_cast<double>(ps.builds), "count");
    rep.add("plan.build_ms", static_cast<double>(ps.build_ns) / 1e6, "ms");
    rep.add("plan.twiddle_bytes",
            static_cast<double>(eng.planCache().twiddleBytes()), "B");
}

// ---------------------------------------------------------------------------
// The service workloads.
// ---------------------------------------------------------------------------

/** One distinct request of the operand pool, with its expected result. */
struct PoolEntry
{
    net::Request request;
    std::vector<uint8_t> frame;
    std::unique_ptr<rns::RnsPolynomial> expected;
    /** Operands kept for the engine-only and rns measurements. */
    std::vector<rns::RnsPolynomial> operands;
};

enum class Outcome : uint8_t
{
    Unsent = 0,
    Unanswered,
    Ok,
    Shed,
    Deadline,
    OtherError,
    Wrong,
};

struct PhaseResult
{
    double rate = 0;
    double seconds = 0;
    uint64_t attempted = 0, ok = 0, shed = 0, deadline = 0, other = 0,
             wrong = 0, unanswered = 0;
    /** Per attempted request, ms from due send time; failures carry the
     *  lower bound (window end - due), so they miss any SLO below it. */
    std::vector<double> latency_ms;
    /** 1 where the request at the same index of latency_ms failed. */
    std::vector<uint8_t> failed_by_due;
    double ok_latency_mean_ms = 0;
    double lag_p50_ms = 0, lag_p99_ms = 0;

    uint64_t
    failed() const
    {
        return attempted - ok;
    }
    double
    failFrac() const
    {
        return attempted ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 1.0;
    }
    double p50() const { return quantile(latency_ms, 0.50); }
    double p99() const { return quantile(latency_ms, 0.99); }

    /**
     * The capacity test. Like Series, it reads the quieter half of the
     * phase: the requests (in due order) are cut into four windows, and
     * p99 and the failure share are taken over the two with the lower
     * mean latency, so a burst of host noise in part of a probe does not
     * fail the rung. A growing backlog shows as window medians rising
     * through all four windows.
     */
    bool
    meets(double slo_ms) const
    {
        const size_t w = latency_ms.size() / 4;
        if (w < 25)
            return false;
        struct Window
        {
            double mean_ms;
            std::vector<double> ms;
            size_t failed;
        };
        std::vector<Window> windows;
        for (size_t i = 0; i < 4; ++i) {
            Window win;
            win.ms.assign(latency_ms.begin() + static_cast<long>(i * w),
                          latency_ms.begin() + static_cast<long>((i + 1) * w));
            win.mean_ms = mean(win.ms);
            win.failed = static_cast<size_t>(std::count(
                failed_by_due.begin() + static_cast<long>(i * w),
                failed_by_due.begin() + static_cast<long>((i + 1) * w),
                uint8_t{1}));
            windows.push_back(std::move(win));
        }
        bool rising = true;
        for (size_t i = 1; i < 4; ++i)
            rising = rising && quantile(windows[i].ms, 0.5) >
                                   quantile(windows[i - 1].ms, 0.5);
        const bool growing =
            rising && quantile(windows[3].ms, 0.5) >
                          2 * quantile(windows[0].ms, 0.5) + 0.1 * slo_ms;
        std::sort(windows.begin(), windows.end(),
                  [](const Window& x, const Window& y) {
                      return x.mean_ms < y.mean_ms;
                  });
        std::vector<double> quiet = windows[0].ms;
        quiet.insert(quiet.end(), windows[1].ms.begin(), windows[1].ms.end());
        const double fail_frac =
            static_cast<double>(windows[0].failed + windows[1].failed) /
            static_cast<double>(quiet.size());
        return quantile(quiet, 0.99) <= slo_ms && fail_frac <= 0.01 &&
               !growing;
    }
};

struct Series;

class SvcBench
{
  public:
    SvcBench(const SvcConfig& cfg, uint64_t seed)
        : cfg_(cfg), seed_(seed),
          basis_(static_cast<int>(cfg.spec.bits),
                 static_cast<int>(cfg.spec.two_adicity),
                 static_cast<int>(cfg.spec.channels))
    {
    }

    /** Operands and threads=1 reference results (not part of setup_s). */
    void
    buildPool()
    {
        engine::Engine ref(engine::EngineOptions{bestBackend(), 1, {}, 0});
        const size_t fmas = cfg_.fma_in_4 ? kSvcFmaPool : 0;
        for (size_t i = 0; i < kSvcPolymulPool + fmas; ++i) {
            const bool fma = i >= kSvcPolymulPool;
            const size_t count = fma ? 2 * cfg_.fma_pairs : 2;
            auto e = std::make_unique<PoolEntry>();
            for (size_t o = 0; o < count; ++o)
                e->operands.push_back(rns::randomPolynomial(
                    basis_, cfg_.n, mix64(seed_, i * 1000 + o + 1)));
            net::Request& req = e->request;
            req.op = fma ? net::OpKind::Fma : net::OpKind::Polymul;
            req.request_id = 1;
            req.deadline_ns = cfg_.deadline_ns;
            req.basis = cfg_.spec;
            req.n = cfg_.n;
            for (const rns::RnsPolynomial& p : e->operands)
                for (size_t c = 0; c < basis_.size(); ++c)
                    req.operands.push_back(p.channel(c));
            if (fma) {
                std::vector<std::pair<const rns::RnsPolynomial*,
                                      const rns::RnsPolynomial*>>
                    products;
                for (size_t p = 0; p < cfg_.fma_pairs; ++p)
                    products.emplace_back(&e->operands[2 * p],
                                          &e->operands[2 * p + 1]);
                e->expected = std::make_unique<rns::RnsPolynomial>(
                    ref.fmaBatch(products));
            } else {
                e->expected = std::make_unique<rns::RnsPolynomial>(
                    ref.polymulNegacyclic(e->operands[0], e->operands[1]));
            }
            e->frame = net::encodeRequestFrame(req);
            pool_.push_back(std::move(e));
        }
        // Each connection's sender patches request ids into its own copy.
        conn_frames_.resize(kConnections);
        for (auto& frames : conn_frames_)
            for (const auto& e : pool_)
                frames.push_back(e->frame);
    }

    /** Pool entry for request @p seq on connection @p conn of a phase. */
    size_t
    pick(uint64_t salt, int conn, uint64_t seq) const
    {
        const uint64_t r =
            mix64(seed_ ^ salt, (static_cast<uint64_t>(conn) << 40) ^ seq);
        if (cfg_.fma_in_4 && (r & 3) < cfg_.fma_in_4)
            return kSvcPolymulPool + (r >> 8) % kSvcFmaPool;
        return (r >> 8) % kSvcPolymulPool;
    }

    net::ServerOptions
    serverOptions() const
    {
        net::ServerOptions o; // library defaults, not MQX_SERVER_* env
        o.engine.threads = kEngineThreads;
        return o;
    }

    /** Start a server and get the first correct result; seconds. */
    double
    setupOnce(std::unique_ptr<net::PolymulServer>& out)
    {
        const uint64_t t0 = nowNs();
        auto server = std::make_unique<net::PolymulServer>(serverOptions());
        robust::Status s = server->start();
        if (!s.ok())
            throw RunFailure("server start failed: " + s.toString());
        net::ClientOptions co;
        co.port = server->port();
        net::Client client(co);
        net::Response resp;
        s = client.call(pool_[0]->request, resp);
        if (!s.ok() || resp.code != robust::StatusCode::Ok ||
            !sameChannels(resp.channels, *pool_[0]->expected))
            throw RunFailure("setup: first request did not return the "
                             "reference result");
        const double secs = static_cast<double>(nowNs() - t0) / 1e9;
        out = std::move(server);
        return secs;
    }

    /** Drain @p server; require a clean stop and no outstanding lease. */
    static void
    stopClean(net::PolymulServer& server)
    {
        const net::DrainReport r = server.stop();
        const size_t leased = server.engine().workspacePool().leasedCount();
        if (!r.clean || leased != 0)
            throw RunFailure("unclean drain: clean=" +
                             std::string(r.clean ? "true" : "false") +
                             " leased=" + std::to_string(leased));
    }

    PhaseResult runPhase(uint16_t port, double rate, double seconds,
                         uint64_t salt);

    int run(double seconds, bool trace);

  private:
    void measureLayers(net::PolymulServer& server, const Series& traced,
                       const net::PolymulServer::Stats& s0,
                       const net::PolymulServer::Stats& s1,
                       const engine::ThreadPool::Stats& pool0,
                       uint64_t window_ns, double capacity,
                       double budget_s, Report& rep);

    const SvcConfig& cfg_;
    uint64_t seed_;
    rns::RnsBasis basis_;
    std::vector<std::unique_ptr<PoolEntry>> pool_;
    std::vector<std::vector<std::vector<uint8_t>>> conn_frames_;
};

PhaseResult
SvcBench::runPhase(uint16_t port, double rate, double seconds, uint64_t salt)
{
    PhaseResult res;
    res.rate = rate;
    res.seconds = seconds;
    const uint64_t dur_ns = static_cast<uint64_t>(seconds * 1e9);
    const uint64_t gap_ns =
        static_cast<uint64_t>(1e9 * kConnections / rate);
    const uint64_t grace_ns =
        std::max<uint64_t>(500'000'000, static_cast<uint64_t>(
                                            cfg_.slo_ms * 4e6));
    const size_t max_seq = static_cast<size_t>(dur_ns / gap_ns) + 2;

    struct Conn
    {
        net::Socket sock;
        std::vector<Outcome> outcome;
        std::vector<uint64_t> done_ns;
        std::vector<double> lag_ms;
        std::atomic<uint64_t> sent{0};
        std::atomic<bool> sender_done{false};
        uint64_t end_ns = 0;
        std::thread sender, receiver;
    };
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Conn>();
        robust::Status s = net::connectLoopback(port, 2000, conn->sock);
        if (!s.ok())
            throw RunFailure("connect failed: " + s.toString());
        conn->outcome.assign(max_seq, Outcome::Unsent);
        conn->done_ns.assign(max_seq, 0);
        conn->lag_ms.reserve(max_seq);
        conns.push_back(std::move(conn));
    }

    const uint64_t start_ns = nowNs() + 2'000'000;
    auto due = [&](int c, uint64_t seq) {
        return start_ns + seq * gap_ns +
               static_cast<uint64_t>(c) * gap_ns / kConnections;
    };
    for (int c = 0; c < kConnections; ++c) {
        Conn* conn = conns[static_cast<size_t>(c)].get();
        conn->sender = std::thread([&, conn, c] {
            for (uint64_t seq = 0; seq < max_seq; ++seq) {
                const uint64_t d = due(c, seq);
                if (d >= start_ns + dur_ns)
                    break;
                uint64_t now = nowNs();
                if (now < d) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(d - now));
                    now = nowNs();
                }
                conn->lag_ms.push_back(static_cast<double>(now - d) / 1e6);
                std::vector<uint8_t>& frame =
                    conn_frames_[static_cast<size_t>(c)][pick(salt, c, seq)];
                const uint64_t id =
                    (static_cast<uint64_t>(c + 1) << 32) | seq;
                std::memcpy(frame.data() + net::kHeaderBytes + 4, &id, 8);
                conn->outcome[seq] = Outcome::Unanswered;
                conn->sent.store(seq + 1, std::memory_order_release);
                if (!conn->sock.writeAll(frame.data(), frame.size(), 5000)
                         .ok())
                    break;
            }
            conn->sender_done.store(true, std::memory_order_release);
        });
        conn->receiver = std::thread([&, conn, c] {
            net::FrameReader reader;
            std::vector<uint8_t> buf(1 << 18);
            std::vector<uint8_t> body;
            uint64_t received = 0;
            uint64_t done_at = 0;
            for (;;) {
                const uint64_t now = nowNs();
                if (conn->sender_done.load(std::memory_order_acquire)) {
                    if (done_at == 0)
                        done_at = now;
                    if (received >=
                            conn->sent.load(std::memory_order_acquire) ||
                        now - done_at > grace_ns)
                        break;
                }
                net::IoResult io =
                    conn->sock.readSome(buf.data(), buf.size(), 20);
                if (!io.status.ok() || io.eof)
                    break;
                if (io.timed_out)
                    continue;
                reader.feed(buf.data(), io.bytes);
                for (;;) {
                    const net::FrameReader::Next next = reader.next(body);
                    if (next != net::FrameReader::Next::Frame)
                        break;
                    net::Response resp;
                    const bool decoded =
                        net::decodeResponse(body.data(), body.size(), resp)
                            .ok();
                    const uint64_t t1 = nowNs();
                    const uint64_t seq = resp.request_id & 0xffffffffull;
                    // The acquire load orders the sender's outcome write
                    // before this read.
                    if (!decoded ||
                        (resp.request_id >> 32) !=
                            static_cast<uint64_t>(c + 1) ||
                        seq >= conn->sent.load(std::memory_order_acquire) ||
                        conn->outcome[seq] != Outcome::Unanswered)
                        continue; // not one of ours: stays unanswered
                    ++received;
                    conn->done_ns[seq] = t1;
                    switch (resp.code) {
                    case robust::StatusCode::Ok:
                        conn->outcome[seq] =
                            sameChannels(resp.channels,
                                         *pool_[pick(salt, c, seq)]
                                              ->expected)
                                ? Outcome::Ok
                                : Outcome::Wrong;
                        break;
                    case robust::StatusCode::ResourceExhausted:
                        conn->outcome[seq] = Outcome::Shed;
                        break;
                    case robust::StatusCode::DeadlineExceeded:
                        conn->outcome[seq] = Outcome::Deadline;
                        break;
                    default:
                        conn->outcome[seq] = Outcome::OtherError;
                        break;
                    }
                }
            }
            conn->end_ns = nowNs();
        });
    }

    uint64_t window_end = 0;
    for (auto& conn : conns) {
        conn->sender.join();
        conn->receiver.join();
        conn->sock.closeNow();
        window_end = std::max(window_end, conn->end_ns);
    }

    // Order attempts by due time (PhaseResult::meets reads the trend).
    std::vector<std::tuple<uint64_t, double, uint8_t>> by_due;
    std::vector<double> lags, ok_lat;
    for (int c = 0; c < kConnections; ++c) {
        Conn& conn = *conns[static_cast<size_t>(c)];
        lags.insert(lags.end(), conn.lag_ms.begin(), conn.lag_ms.end());
        for (uint64_t seq = 0; seq < max_seq; ++seq) {
            const uint64_t d = due(c, seq);
            if (d >= start_ns + dur_ns)
                break;
            ++res.attempted;
            const Outcome o = conn.outcome[seq];
            double ms = static_cast<double>(window_end - d) / 1e6;
            switch (o) {
            case Outcome::Ok:
                ++res.ok;
                ms = static_cast<double>(conn.done_ns[seq] - d) / 1e6;
                ok_lat.push_back(ms);
                break;
            case Outcome::Shed:
                ++res.shed;
                break;
            case Outcome::Deadline:
                ++res.deadline;
                break;
            case Outcome::Wrong:
                ++res.wrong;
                break;
            case Outcome::OtherError:
                ++res.other;
                break;
            case Outcome::Unsent:
            case Outcome::Unanswered:
                ++res.unanswered;
                break;
            }
            by_due.emplace_back(d, ms, o == Outcome::Ok ? 0 : 1);
        }
    }
    std::sort(by_due.begin(), by_due.end());
    for (const auto& [d, ms, failed] : by_due) {
        res.latency_ms.push_back(ms);
        res.failed_by_due.push_back(failed);
    }
    res.ok_latency_mean_ms = mean(ok_lat);
    res.lag_p50_ms = quantile(lags, 0.50);
    res.lag_p99_ms = quantile(lags, 0.99);
    if (res.wrong)
        throw RunFailure(std::to_string(res.wrong) +
                         " responses differ from the reference");
    return res;
}

void
printPhase(const char* what, const PhaseResult& p)
{
    std::printf("phase %-10s rate=%7.1f/s n=%llu ok=%llu shed=%llu "
                "deadline=%llu other=%llu unanswered=%llu p50=%.3fms "
                "p99=%.3fms lag_p50=%.3fms lag_p99=%.3fms\n",
                what, p.rate, static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.shed),
                static_cast<unsigned long long>(p.deadline),
                static_cast<unsigned long long>(p.other),
                static_cast<unsigned long long>(p.unanswered), p.p50(),
                p.p99(), p.lag_p50_ms, p.lag_p99_ms);
}

/**
 * The chunks of one fixed rate, spread over a run. Latency p50 and p99
 * are read from quietestSamples(chunks): a failed request counts with its
 * lower-bound latency, so chunks with failures rank loud (ok_frac still
 * counts every chunk). Goodput is the mean of the chunks' OK/s:
 * past capacity the service swings between chunks, and the mean is the
 * steadiest summary of that.
 */
struct Series
{
    std::vector<PhaseResult> chunks;

    void
    add(PhaseResult p, const char* what)
    {
        printPhase(what, p);
        chunks.push_back(std::move(p));
    }

    uint64_t
    attempted() const
    {
        uint64_t n = 0;
        for (const PhaseResult& c : chunks)
            n += c.attempted;
        return n;
    }

    uint64_t
    failed() const
    {
        uint64_t n = 0;
        for (const PhaseResult& c : chunks)
            n += c.failed();
        return n;
    }

    std::vector<double>
    quietest() const
    {
        std::vector<const std::vector<double>*> v;
        for (const PhaseResult& c : chunks)
            v.push_back(&c.latency_ms);
        return quietestSamples(v);
    }

    double p50() const { return quantile(quietest(), 0.5); }
    double p99() const { return quantile(quietest(), 0.99); }

    std::string
    quietMethod() const
    {
        return "over the quietest chunks, n=" +
               std::to_string(quietest().size()) + " of " +
               std::to_string(attempted());
    }

    double
    goodput() const
    {
        std::vector<double> v;
        for (const PhaseResult& c : chunks)
            v.push_back(static_cast<double>(c.ok) / c.seconds);
        return mean(v);
    }

    double
    okLatencyMean() const
    {
        std::vector<double> v;
        for (const PhaseResult& c : chunks)
            v.push_back(c.ok_latency_mean_ms);
        return mean(v);
    }

    double lagP50() const { return quantileOf(&PhaseResult::lag_p50_ms, 0.5); }
    double lagP99() const { return quantileOf(&PhaseResult::lag_p99_ms, 0.5); }

  private:
    template <typename F>
    double
    quantileOf(F f, double q) const
    {
        std::vector<double> v;
        for (const PhaseResult& c : chunks)
            v.push_back(std::invoke(f, c));
        return quantile(v, q);
    }
};

/** Parse one numeric field of one span out of telemetry::snapshotJson(). */
double
snapshotSpanField(const std::string& json, const std::string& span,
                  const std::string& field)
{
    const size_t at = json.find("\"" + span + "\": {");
    if (at == std::string::npos)
        return 0;
    const size_t f = json.find("\"" + field + "\": ", at);
    const size_t end = json.find('}', at);
    if (f == std::string::npos || f > end)
        return 0;
    return std::strtod(json.c_str() + f + field.size() + 4, nullptr);
}

int
SvcBench::run(double seconds, bool trace)
{
    std::vector<double> ladder;
    for (double r = cfg_.ladder_lo; r <= cfg_.ladder_hi * 1.0001;
         r *= cfg_.ladder_ratio)
        ladder.push_back(std::round(r));
    std::printf("rates    : nominal=%g high=%g overload=%g req/s; "
                "ladder %g..%g x%g (%zu rungs); slo p99 <= %g ms\n",
                cfg_.nominal_rps, cfg_.high_rps, cfg_.overload_rps,
                ladder.front(), ladder.back(), cfg_.ladder_ratio,
                ladder.size(), cfg_.slo_ms);

    buildPool();
    std::vector<double> setups;
    std::unique_ptr<net::PolymulServer> server;
    for (int i = 0; i < kSvcSetupReps; ++i) {
        if (server)
            stopClean(*server);
        setups.push_back(setupOnce(server));
    }
    const uint16_t port = server->port();

    // Noise on a shared host comes in bursts lasting seconds, so the
    // fixed-rate figures are not one contiguous phase each: they come
    // from short chunks spread over the whole run, interleaved with the
    // capacity probes, and are read from the quieter chunks (Series).
    const double chunk_s = 0.025 * seconds;

    // Grow the workspace pools and socket buffers to the concurrency of
    // the high and overload rates before anything is recorded.
    // The host hands a guest's idle vCPUs back slowly, so this lasts at
    // least two seconds even in short runs.
    runPhase(port, cfg_.high_rps, std::max(2.0, 0.06 * seconds), 0x11);
    runPhase(port, cfg_.overload_rps, 0.03 * seconds, 0x12);

    Series nominal, high, over, untraced, traced;
    net::PolymulServer::Stats s0{};
    engine::ThreadPool::Stats pool0;
    uint64_t cycles_start_ns = 0;
    int cycles = 0;
    // One measurement cycle. The traced run records the server layers
    // over its nominal chunks only, with the library's spans on in every
    // second one; the untraced run also samples the high and overload
    // rates.
    auto cycle = [&] {
        const uint64_t salt = 0x1000 * static_cast<uint64_t>(++cycles);
        if (trace) {
            if (cycles == 1) {
                telemetry::resetAll();
                s0 = server->stats();
                pool0 = server->engine().pool().stats();
                cycles_start_ns = nowNs();
            }
            untraced.add(runPhase(port, cfg_.nominal_rps, chunk_s, salt + 1),
                         "untraced");
            telemetry::setEnabled(true);
            traced.add(runPhase(port, cfg_.nominal_rps, chunk_s, salt + 2),
                       "traced");
            telemetry::setEnabled(false);
            return;
        }
        nominal.add(runPhase(port, cfg_.nominal_rps, chunk_s, salt + 1),
                    "nominal");
        high.add(runPhase(port, cfg_.high_rps, chunk_s, salt + 2),
                 "high");
        over.add(runPhase(port, cfg_.overload_rps, 0.67 * chunk_s, salt + 3),
                 "overload");
    };
    const int total_cycles = trace ? 4 : 10;

    // Capacity: binary search on the fixed ladder, assuming passing is
    // monotone in rate. Host noise only ever adds latency, so a failed
    // probe is retried once (at most four retries a run), after a
    // measurement cycle has moved it away from the burst, and the rung
    // passes if either attempt does. The traced run retries at once: its
    // cycles must stay contiguous.
    const double probe_s = 0.04 * seconds;
    int retries_left = 4;
    long lo = -1, hi = static_cast<long>(ladder.size());
    while (hi - lo > 1) {
        const long mid = (lo + hi) / 2;
        const double rate = ladder[static_cast<size_t>(mid)];
        bool pass = false;
        for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
            if (attempt > 0) {
                if (retries_left == 0)
                    break;
                --retries_left;
                if (!trace && cycles < total_cycles)
                    cycle();
            }
            const PhaseResult p = runPhase(
                port, rate, probe_s,
                0x100 + 2 * static_cast<uint64_t>(mid) + attempt);
            pass = p.meets(cfg_.slo_ms);
            printPhase(pass ? "probe-pass" : "probe-fail", p);
        }
        (pass ? lo : hi) = mid;
    }
    const double capacity = lo >= 0 ? ladder[static_cast<size_t>(lo)] : 0;
    while (cycles < total_cycles)
        cycle();

    Report rep;
    const Series& at_nominal = trace ? traced : nominal;
    uint64_t attempted = at_nominal.attempted() + high.attempted();
    uint64_t failed = at_nominal.failed() + high.failed();
    if (!trace) {
        const std::string n_nom =
            "(n=" + std::to_string(nominal.attempted()) + " at " +
            std::to_string(static_cast<int>(cfg_.nominal_rps)) + "/s)";
        rep.add("throughput_ops_s", over.goodput(), "1/s",
                "mean over chunks of OK responses/s at " +
                    std::to_string(static_cast<int>(cfg_.overload_rps)) +
                    "/s offered");
        rep.add("capacity_rps", capacity, "1/s",
                "highest ladder rate meeting p99, fail_frac, backlog");
        rep.add("latency_p50_ms", nominal.p50(), "ms",
                n_nom + ", " + nominal.quietMethod());
        rep.add("latency_p99_ms", nominal.p99(), "ms",
                n_nom + ", " + nominal.quietMethod());
        rep.add("latency_p99_ms_high", high.p99(), "ms",
                "(n=" + std::to_string(high.attempted()) + " at " +
                    std::to_string(static_cast<int>(cfg_.high_rps)) +
                    "/s), " + high.quietMethod());
        rep.add("ok_frac",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(std::max<uint64_t>(attempted,
                                                                 1)),
                "ratio", "1 - fail_frac over nominal + high");
        rep.add("setup_s", quantile(setups, 0.5), "s",
                "median of " + std::to_string(kSvcSetupReps) +
                    " server starts to first correct result");
    } else {
        const net::PolymulServer::Stats s1 = server->stats();
        measureLayers(*server, traced, s0, s1, pool0,
                      nowNs() - cycles_start_ns, capacity, 0.15 * seconds,
                      rep);
        high.add(runPhase(port, cfg_.high_rps, 0.1 * seconds, 0x22),
                 "high");
        attempted = at_nominal.attempted() + high.attempted();
        failed = at_nominal.failed() + high.failed();
        const net::PolymulServer::Stats s2 = server->stats();
        const double reqs = static_cast<double>(
            std::max<uint64_t>(s2.requests - s0.requests, 1));
        rep.add("server.shed_frac",
                static_cast<double>(s2.shed - s0.shed) / reqs, "ratio",
                "nominal + high");
        rep.add("server.deadline_miss_frac",
                static_cast<double>(s2.deadline_misses - s0.deadline_misses) /
                    reqs,
                "ratio", "nominal + high");
        rep.add("trace.overhead_frac",
                traced.okLatencyMean() / untraced.okLatencyMean() - 1.0,
                "ratio", "mean latency traced / untraced - 1");
        rep.add("loadgen.lag_p99_ms", traced.lagP99(), "ms",
                "median over nominal chunks");
    }
    stopClean(*server);
    if (!trace)
        rep.add("peak_rss_mib", peakRssMib(), "MiB");
    std::printf("fail_frac = %.6f (%llu of %llu at nominal + high)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    // A generator that is late on a typical send cannot offer the rate:
    // the run measured a lower load than it claims.
    const double lag_p50 = std::max(at_nominal.lagP50(), high.lagP50());
    if (lag_p50 > std::max(1.0, cfg_.slo_ms / 10))
        throw RunFailure("load generator fell behind: send lag p50 " +
                         std::to_string(lag_p50) + " ms");
    rep.print(true, attempted, failed);
    return 0;
}

void
SvcBench::measureLayers(net::PolymulServer& server, const Series& traced,
                        const net::PolymulServer::Stats& s0,
                        const net::PolymulServer::Stats& s1,
                        const engine::ThreadPool::Stats& pool0,
                        uint64_t window_ns, double capacity, double budget_s,
                        Report& rep)
{
    // Server layer: the production net.request histogram (admission to
    // response ready), scraped through the snapshot a client would read.
    // The library's spans go off again for the timed calls below.
    const std::string snap = telemetry::snapshotJson();
    telemetry::setEnabled(false);
    const double admit_count = snapshotSpanField(snap, "net.request", "count");
    const double admit_mean_us =
        admit_count > 0
            ? snapshotSpanField(snap, "net.request", "sum_ns") / admit_count /
                  1e3
            : 0;
    rep.add("server.admit_to_ready_p50_us",
            snapshotSpanField(snap, "net.request", "p50_ns") / 1e3, "us",
            "net.request histogram");
    rep.add("server.admit_to_ready_p99_us",
            snapshotSpanField(snap, "net.request", "p99_ns") / 1e3, "us");
    const double served =
        static_cast<double>((s1.served - s0.served) - (s1.shed - s0.shed));
    const double coalesced =
        static_cast<double>(s1.coalesced_requests - s0.coalesced_requests);
    const double calls =
        static_cast<double>(s1.coalesced_batches - s0.coalesced_batches) +
        (served - coalesced);
    const double mean_batch = calls > 0 ? served / calls : 1.0;
    rep.add("server.coalesce_frac", served > 0 ? coalesced / served : 0,
            "ratio", "coalesced_requests / served");
    rep.add("server.mean_batch", mean_batch, "count",
            "requests per engine call");
    addPlanAndPool(server.engine(), pool0, window_ns, rep);

    // Wire layer: the codec calls on the workload's request mix.
    const size_t order = 64;
    std::vector<double> enc_req, dec_req, validate, enc_resp, dec_resp;
    double req_bytes = 0, resp_bytes = 0;
    for (size_t i = 0; i < order; ++i) {
        const PoolEntry& e = *pool_[pick(0x77, 0, i)];
        uint64_t t0 = nowNs();
        std::vector<uint8_t> frame = net::encodeRequestFrame(e.request);
        enc_req.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        net::Request req;
        t0 = nowNs();
        if (!net::decodeRequest(frame.data() + net::kHeaderBytes,
                                frame.size() - net::kHeaderBytes, req)
                 .ok())
            throw RunFailure("wire: request frame does not decode");
        dec_req.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        t0 = nowNs();
        if (!net::validateResidues(req, basis_).ok())
            throw RunFailure("wire: pool residues fail validation");
        validate.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        net::Response resp;
        resp.request_id = 1;
        resp.basis = cfg_.spec;
        resp.n = cfg_.n;
        for (size_t c = 0; c < basis_.size(); ++c)
            resp.channels.push_back(e.expected->channel(c));
        t0 = nowNs();
        std::vector<uint8_t> rframe = net::encodeResponseFrame(resp);
        enc_resp.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        net::Response back;
        t0 = nowNs();
        if (!net::decodeResponse(rframe.data() + net::kHeaderBytes,
                                 rframe.size() - net::kHeaderBytes, back)
                 .ok() ||
            !sameChannels(back.channels, *e.expected))
            throw RunFailure("wire: response round trip mismatch");
        dec_resp.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        req_bytes += static_cast<double>(frame.size());
        resp_bytes += static_cast<double>(rframe.size());
    }
    rep.add("wire.encode_req_us", mean(enc_req), "us", "mean over mix");
    rep.add("wire.decode_req_us", mean(dec_req), "us");
    rep.add("wire.validate_us", mean(validate), "us");
    rep.add("wire.encode_resp_us", mean(enc_resp), "us");
    rep.add("wire.decode_resp_us", mean(dec_resp), "us");
    rep.add("wire.req_bytes", req_bytes / order, "B");
    rep.add("wire.resp_bytes", resp_bytes / order, "B");

    // Residual: e2e mean (due -> decoded response) not covered by the
    // request decode, admission-to-ready, response encode and decode.
    const double layers_ms =
        (mean(dec_req) + admit_mean_us + mean(enc_resp) + mean(dec_resp)) /
        1e3;
    rep.add("svc.residual_frac",
            traced.okLatencyMean() > 0
                ? 1.0 - layers_ms / traced.okLatencyMean()
                : 0,
            "ratio", "socket, framing, scheduling and loadgen lag");

    // Client layer: closed-loop round trips on the otherwise idle server.
    net::ClientOptions co;
    co.port = server.port();
    net::Client client(co);
    std::vector<double> rtt;
    for (size_t i = 0; i < 40; ++i) {
        const PoolEntry& e = *pool_[pick(0x78, 0, i)];
        net::Response resp;
        const uint64_t t0 = nowNs();
        const robust::Status s = client.call(e.request, resp);
        rtt.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        if (!s.ok() || resp.code != robust::StatusCode::Ok ||
            !sameChannels(resp.channels, *e.expected))
            throw RunFailure("client: idle round trip failed");
    }
    rep.add("client.rtt_idle_us", quantile(rtt, 0.5), "us",
            "median of 40 sequential calls");
    rep.add("client.retries", static_cast<double>(client.retries()), "count");

    // Engine layer: the same op shape on a bare Engine.
    engine::Engine eng(
        engine::EngineOptions{bestBackend(), kEngineThreads, {}, 0});
    double op_us = 0, engine_ops_s = 0;
    const rns::RnsPolynomial& a0 = pool_[0]->operands[0];
    const rns::RnsPolynomial& b0 = pool_[0]->operands[1];
    double polymul_op_us = 0;
    size_t polymul_products = 1;
    if (!cfg_.fma_in_4) {
        const size_t batch = std::max<size_t>(
            1, static_cast<size_t>(std::lround(mean_batch)));
        std::vector<std::pair<const rns::RnsPolynomial*,
                              const rns::RnsPolynomial*>>
            products;
        for (size_t i = 0; i < batch; ++i) {
            const PoolEntry& e = *pool_[i % kSvcPolymulPool];
            products.emplace_back(&e.operands[0], &e.operands[1]);
        }
        std::vector<rns::RnsPolynomial> out;
        const std::vector<double> us = timeCallsUs(
            repsFor(budget_s / 3, 400.0 * static_cast<double>(batch), 20,
                    2000),
            [&] { out = eng.polymulNegacyclicBatch(products); });
        for (size_t i = 0; i < batch; ++i)
            if (!samePoly(out[i], *pool_[i % kSvcPolymulPool]->expected))
                throw RunFailure("engine: batch result mismatch");
        op_us = quantile(us, 0.5);
        engine_ops_s = static_cast<double>(batch) * 1e6 / op_us;
        polymul_op_us = op_us;
        polymul_products = batch;
        rep.add("engine.op_us", op_us, "us",
                "polymulNegacyclicBatch of " + std::to_string(batch));
    } else {
        rns::RnsPolynomial c(basis_, cfg_.n);
        std::vector<double> per_req;
        const uint64_t deadline = nowNs() + static_cast<uint64_t>(
                                                budget_s / 3 * 1e9);
        for (uint64_t i = 0; i < 4 || nowNs() < deadline; ++i) {
            const PoolEntry& e = *pool_[pick(0x79, 0, i)];
            const uint64_t t0 = nowNs();
            if (e.request.op == net::OpKind::Fma) {
                std::vector<std::pair<const rns::RnsPolynomial*,
                                      const rns::RnsPolynomial*>>
                    products;
                for (size_t p = 0; p < cfg_.fma_pairs; ++p)
                    products.emplace_back(&e.operands[2 * p],
                                          &e.operands[2 * p + 1]);
                eng.fmaBatchInto(products, c);
            } else {
                eng.polymulNegacyclicInto(e.operands[0], e.operands[1], c);
            }
            per_req.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!samePoly(c, *e.expected))
                throw RunFailure("engine: result mismatch");
        }
        op_us = mean(per_req);
        engine_ops_s = 1e6 / op_us;
        rns::RnsPolynomial c1(basis_, cfg_.n);
        polymul_op_us = quantile(
            timeCallsUs(50, [&] { eng.polymulNegacyclicInto(a0, b0, c1); }),
            0.5);
        rep.add("engine.op_us", op_us, "us", "mean per request over the mix");
    }
    rep.add("svc.engine_ceiling_ratio",
            capacity > 0 ? engine_ops_s / capacity : 0, "ratio",
            "bare engine ops/s / capacity_rps");

    const double channel_us = measureRnsChannel(eng, a0, b0, budget_s / 3);
    rep.add("rns.channel_polymul_us", channel_us, "us",
            "serial polymulChannel");
    rep.add("engine.parallel_eff",
            static_cast<double>(basis_.size() * polymul_products) *
                channel_us /
                (static_cast<double>(kEngineThreads) * polymul_op_us),
            "ratio", "channels x channel time / (threads x polymul op)");
    measureNtt(basis_, a0, eng.backend(), budget_s / 3, rep);
}

// ---------------------------------------------------------------------------
// The library workload.
// ---------------------------------------------------------------------------

int
runLib(const LibConfig& cfg, uint64_t seed, double seconds, bool trace)
{
    const rns::RnsBasis basis(cfg.bits, cfg.two_adicity, cfg.channels);
    std::vector<rns::RnsPolynomial> as, bs, refs;
    {
        engine::Engine ref(engine::EngineOptions{bestBackend(), 1, {}, 0});
        for (size_t i = 0; i < kLibPool; ++i) {
            as.push_back(rns::randomPolynomial(basis, cfg.n,
                                               mix64(seed, 2 * i + 1)));
            bs.push_back(rns::randomPolynomial(basis, cfg.n,
                                               mix64(seed, 2 * i + 2)));
            refs.push_back(ref.polymulNegacyclic(as[i], bs[i]));
        }
    }

    // Set-up: basis, engine (pool, plan and table builds) to the first
    // correct result.
    std::vector<double> setups;
    std::unique_ptr<engine::Engine> eng;
    rns::RnsPolynomial c(basis, cfg.n);
    for (int i = 0; i < kLibSetupReps; ++i) {
        eng.reset();
        const uint64_t t0 = nowNs();
        const rns::RnsBasis fresh(cfg.bits, cfg.two_adicity, cfg.channels);
        if (fresh.prime(0).q != basis.prime(0).q)
            throw RunFailure("basis construction is not deterministic");
        eng = std::make_unique<engine::Engine>(
            engine::EngineOptions{bestBackend(), kEngineThreads, {}, 0});
        eng->polymulNegacyclicInto(as[0], bs[0], c);
        if (!samePoly(c, refs[0]))
            throw RunFailure("setup: first result differs from reference");
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // Appends each op's latency (ms) to @p ms for @p secs seconds.
    auto loop = [&](double secs, uint64_t salt, std::vector<double>& ms) {
        const uint64_t end = nowNs() + static_cast<uint64_t>(secs * 1e9);
        for (uint64_t i = 0; nowNs() < end; ++i) {
            const size_t k = mix64(seed ^ salt, i) % kLibPool;
            const uint64_t t0 = nowNs();
            eng->polymulNegacyclicInto(as[k], bs[k], c);
            ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
            if (!samePoly(c, refs[k]))
                throw RunFailure("result " + std::to_string(i) +
                                 " differs from the reference");
        }
    };

    Report rep;
    uint64_t attempted = 0;
    if (!trace) {
        std::vector<double> ms;
        loop(seconds, 0x31, ms);
        attempted = ms.size();
        // Windows of kLibWindow consecutive ops. Throughput is the 75th
        // percentile of their ops/s and the tail the p99 of the quietest
        // windows: host contention only ever slows ops (quietestSamples).
        std::vector<std::vector<double>> windows;
        std::vector<const std::vector<double>*> window_ptrs;
        std::vector<double> window_ops_s;
        for (size_t w = 0; w + kLibWindow <= ms.size(); w += kLibWindow)
            windows.emplace_back(ms.begin() + static_cast<long>(w),
                                 ms.begin() + static_cast<long>(w + kLibWindow));
        for (const std::vector<double>& win : windows) {
            window_ptrs.push_back(&win);
            window_ops_s.push_back(1e3 / mean(win));
        }
        const double ops_s = quantile(window_ops_s, 0.75);
        const std::vector<double> quiet = quietestSamples(window_ptrs);
        const std::string n_tail =
            "over the quietest windows, n=" +
            std::to_string(quiet.size()) + " of " + std::to_string(ms.size());
        rep.add("throughput_ops_s", ops_s, "1/s",
                "closed loop, 1 caller; 75th pct of " +
                    std::to_string(window_ops_s.size()) + " windows of " +
                    std::to_string(kLibWindow) + " ops");
        rep.add("capacity_rps", ops_s, "1/s",
                "lib: the closed-loop rate is the capacity");
        rep.add("latency_p50_ms", quantile(quiet, 0.5), "ms", n_tail);
        rep.add("latency_p99_ms", quantile(quiet, 0.99), "ms", n_tail);
        rep.add("latency_p99_ms_high", quantile(quiet, 0.99), "ms",
                "lib: one load level, same as latency_p99_ms");
        rep.add("ok_frac", 1.0, "ratio", "1 - fail_frac");
        rep.add("setup_s", quantile(setups, 0.5), "s",
                "median of " + std::to_string(kLibSetupReps) +
                    " basis + engine builds to first correct result");
        rep.add("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        // Untraced and traced blocks alternate, so host noise falls on
        // both sides of the overhead comparison alike.
        std::vector<double> untraced, traced;
        telemetry::resetAll();
        const engine::ThreadPool::Stats pool0 = eng->pool().stats();
        const uint64_t w0 = nowNs();
        for (int b = 0; b < 6; ++b) {
            loop(0.05 * seconds, 0x31 + 2 * b, untraced);
            telemetry::setEnabled(true);
            loop(0.05 * seconds, 0x32 + 2 * b, traced);
            telemetry::setEnabled(false);
        }
        const uint64_t window_ns = nowNs() - w0;
        attempted = untraced.size() + traced.size();
        const double op_us = quantile(untraced, 0.5) * 1e3;
        rep.add("engine.op_us", op_us, "us", "polymulNegacyclicInto");
        addPlanAndPool(*eng, pool0, window_ns, rep);
        rep.add("trace.overhead_frac", mean(traced) / mean(untraced) - 1.0,
                "ratio", "mean op latency traced / untraced - 1");
        const double channel_us =
            measureRnsChannel(*eng, as[0], bs[0], 0.15 * seconds);
        rep.add("rns.channel_polymul_us", channel_us, "us",
                "serial polymulChannel");
        rep.add("engine.parallel_eff",
                static_cast<double>(basis.size()) * channel_us /
                    (static_cast<double>(kEngineThreads) * op_us),
                "ratio", "channels x channel time / (threads x op)");
        measureNtt(basis, as[0], eng->backend(), 0.25 * seconds, rep);
        // The service layers do not exist on this workload: reported as 0.
        for (const auto& [name, unit] :
             std::vector<std::pair<const char*, const char*>>{
                 {"wire.encode_req_us", "us"},
                 {"wire.decode_req_us", "us"},
                 {"wire.validate_us", "us"},
                 {"wire.encode_resp_us", "us"},
                 {"wire.decode_resp_us", "us"},
                 {"wire.req_bytes", "B"},
                 {"wire.resp_bytes", "B"},
                 {"client.rtt_idle_us", "us"},
                 {"client.retries", "count"},
                 {"server.admit_to_ready_p50_us", "us"},
                 {"server.admit_to_ready_p99_us", "us"},
                 {"server.coalesce_frac", "ratio"},
                 {"server.mean_batch", "count"},
                 {"server.shed_frac", "ratio"},
                 {"server.deadline_miss_frac", "ratio"},
                 {"svc.residual_frac", "ratio"},
                 {"svc.engine_ceiling_ratio", "ratio"},
                 {"loadgen.lag_p99_ms", "ms"}})
            rep.add(name, 0, unit, "n/a: no service layer");
    }
    if (eng->workspacePool().leasedCount() != 0)
        throw RunFailure("leaked workspace lease");
    rep.print(true, attempted, 0);
    return 0;
}

// ---------------------------------------------------------------------------
// Entry point: guards, metadata, dispatch.
// ---------------------------------------------------------------------------

#ifdef MQX_RANGE_AUDIT
constexpr bool kRangeAudit = true;
#else
constexpr bool kRangeAudit = false;
#endif
#ifdef MQX_FAULT_INJECTION_ENABLED
constexpr bool kFaultInjection = true;
#else
constexpr bool kFaultInjection = false;
#endif
#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

/** Why this build must not be measured, or "" when it may. */
std::string
buildRefusal()
{
    if (kRangeAudit)
        return "MQX_RANGE_AUDIT is compiled in";
    if (kFaultInjection)
        return "MQX_FAULT_INJECTION_ENABLED is compiled in";
    if (std::strcmp(MQX_PERFBENCH_BUILD_TYPE, "Release") != 0 || kAsserts)
        return std::string("build type is ") + MQX_PERFBENCH_BUILD_TYPE +
               ", not Release";
    return "";
}

void
printMeta(const std::string& workload, uint64_t seed, double seconds,
          bool trace)
{
    std::string compiled;
    for (Backend b : {Backend::Scalar, Backend::Portable, Backend::Avx2,
                      Backend::Avx512, Backend::MqxEmulate,
                      Backend::MqxPisa})
        if (backendAvailable(b)) {
            if (!compiled.empty())
                compiled += ",";
            compiled += backendName(b);
        }
    const CpuFeatures& f = hostCpuFeatures();
    std::printf(
        "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %u, \"backend\": "
        "\"%s\", \"backends_available\": \"%s\", \"build_avx2\": %d, "
        "\"build_avx512\": %d, \"engine_threads\": %zu, "
        "\"server_dispatchers\": %zu, \"loadgen_threads\": %d, "
        "\"connections\": %d, \"telemetry_compiled\": %s, "
        "\"telemetry_env\": \"%s\", \"build_type\": \"%s\"}\n",
        workload.c_str(), static_cast<unsigned long long>(seed), seconds,
        trace ? 1 : 0, jsonEscape(f.brand).c_str(),
        std::thread::hardware_concurrency(),
        backendName(bestBackend()).c_str(), compiled.c_str(),
        MQX_BUILD_AVX2 ? 1 : 0, MQX_BUILD_AVX512 ? 1 : 0, kEngineThreads,
        net::ServerOptions{}.dispatchers, 2 * kConnections, kConnections,
        telemetry::compiledIn() ? "true" : "false",
        jsonEscape(std::getenv("MQX_TELEMETRY") ? std::getenv("MQX_TELEMETRY")
                                                : "")
            .c_str(),
        MQX_PERFBENCH_BUILD_TYPE);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mqx_perfbench --workload "
                 "<svc_polymul|svc_deadline_mix|lib_polymul_n64k> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

int
mainImpl(int argc, char** argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            trace = std::atoi(val);
        else
            return usage();
    }
    if (argc % 2 == 0 || workload.empty() || !(seconds > 0) ||
        (trace != 0 && trace != 1))
        return usage();
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "mqx_perfbench: refusing to measure: %s\n",
                     refusal.c_str());
        return 3;
    }
    // End-to-end numbers are measured with the span layer off; the
    // traced run switches it on for its traced phases only.
    telemetry::setEnabled(false);
    printMeta(workload, seed, seconds, trace != 0);
    if (workload == kSvcPolymul.name)
        return SvcBench(kSvcPolymul, seed).run(seconds, trace != 0);
    if (workload == kSvcDeadlineMix.name)
        return SvcBench(kSvcDeadlineMix, seed).run(seconds, trace != 0);
    if (workload == kLibPolymul.name)
        return runLib(kLibPolymul, seed, seconds, trace != 0);
    return usage();
}

} // namespace
} // namespace perfbench
} // namespace mqx

int
main(int argc, char** argv)
{
    try {
        return mqx::perfbench::mainImpl(argc, argv);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "mqx_perfbench: FAILED: %s\n", e.what());
        return 1;
    }
}
