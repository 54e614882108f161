/**
 * @file
 * Crypto pipeline microbenchmarks — host throughput and batch cost.
 *
 * Three independent sections:
 *
 *  1. Host wall-time: the real cost of page crypto on this machine,
 *     for each AES-CTR and SHA-256 kernel in crypto/kernels.hh
 *     (reference, portable and, where the CPU has AES-NI/SHA-NI,
 *     hardware) called directly, then the AES-NI and VAES CTR kernels
 *     each by name, and for the public pipeline, which
 *     runs the kernels the host selected (printed) with HMAC key
 *     midstates. The reference pipeline also keys HMAC per call.
 *     These numbers vary by host and are recorded under `host_` keys,
 *     which bench/compare.py reports but never gates.
 *
 *  2. Worker sweep: wall-time of a 64-page encryptPages batch at each
 *     crypto worker count in `--threads=<list>` (default 1,2,4,8).
 *     Scaling depends entirely on host core count, so these are
 *     `host_` keys too; the sweep additionally asserts that frames,
 *     metadata and simulated cycles are bit-identical at every worker
 *     count (the pool's determinism contract).
 *
 *  3. Simulated cycles: sealing 32 dirty cloaked pages for the kernel
 *     through its view, the one way such a page is sealed (a
 *     fault-driven seal per page). The total goes to BENCH_crypto.json
 *     so the perf harness (bench/compare.py) pins it.
 *
 * `--quick` shrinks the host-time iteration counts for sanitizer CI;
 * the simulated-cycle metrics are iteration-count-fixed and identical
 * either way.
 */

#include "bench_common.hh"

#include "base/bytes.hh"
#include "base/pool.hh"
#include "cloak/engine.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/kernels.hh"
#include "crypto/sha256.hh"
#include "sim/machine.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace
{

using namespace osh;

// ---------------------------------------------------------------------------
// Section 1: host wall-time, by crypto kernel
// ---------------------------------------------------------------------------

namespace kernels = crypto::kernels;

/** One measured host-side operation over `bytes` bytes per call. */
struct HostResult
{
    std::uint64_t nsPerOp = 0;
    std::uint64_t mbPerSec = 0;
};

template <typename F>
HostResult
measureHost(std::size_t bytes_per_op, int iters, F&& op)
{
    for (int i = 0; i < iters / 8 + 1; ++i)
        op(i);
    std::uint64_t t0 = bench::hostNowNs();
    for (int i = 0; i < iters; ++i)
        op(i);
    std::uint64_t elapsed = bench::hostNowNs() - t0;
    HostResult r;
    r.nsPerOp = elapsed / static_cast<std::uint64_t>(iters);
    r.mbPerSec = bench::mbPerSec(
        bytes_per_op * static_cast<std::uint64_t>(iters), elapsed);
    return r;
}

using Page = std::array<std::uint8_t, pageSize>;
using PageHeader = std::array<std::uint8_t, 40>;

/**
 * One column of the host table: an AES-CTR and a SHA-256 compression
 * kernel called directly. Either is null where the host cannot run it.
 */
struct KernelSet
{
    const char* name;
    kernels::AesCtrFn aesCtr;
    kernels::Sha256CompressFn sha256;
};

/**
 * SHA-256 of header || page through one compression kernel, blocked as
 * the engine's streaming hash blocks it: the 40-byte identity header
 * and the page's first 24 bytes, then 63 blocks straight out of the
 * page, then the padded last 40 bytes.
 */
crypto::Digest
pageDigest(kernels::Sha256CompressFn compress, const PageHeader& header,
           const Page& page)
{
    constexpr std::size_t head = crypto::sha256BlockSize - 40;
    constexpr std::size_t whole =
        (pageSize - head) / crypto::sha256BlockSize;
    constexpr std::size_t tail =
        pageSize - head - whole * crypto::sha256BlockSize;
    static_assert(tail < 56, "the length fits in the last block");
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    std::uint8_t block[crypto::sha256BlockSize] = {};
    std::memcpy(block, header.data(), header.size());
    std::memcpy(block + header.size(), page.data(), head);
    compress(state, block, 1);
    compress(state, page.data() + head, whole);
    std::memset(block, 0, sizeof(block));
    std::memcpy(block, page.data() + pageSize - tail, tail);
    block[tail] = 0x80;
    storeBe64(block + 56, (header.size() + pageSize) * 8);
    compress(state, block, 1);
    crypto::Digest d;
    for (int i = 0; i < 8; ++i)
        storeBe32(d.data() + i * 4, state[i]);
    return d;
}

/**
 * Page encrypt + MAC as the cloak engine does it: AES-CTR over the
 * 4 KiB page under a fresh-ish IV, then SHA-256 over the identity
 * header plus the ciphertext. A null `set` runs the public API.
 */
HostResult
measurePageEncryptMac(const crypto::Aes128& aes, const KernelSet* set,
                      int iters)
{
    Page page{};
    PageHeader header{};
    crypto::Iv iv{};
    return measureHost(pageSize, iters, [&](int i) {
        iv[0] = static_cast<std::uint8_t>(i);
        page[0] = static_cast<std::uint8_t>(i);
        header[0] = static_cast<std::uint8_t>(i);
        crypto::Digest d;
        if (set != nullptr) {
            set->aesCtr(aes.roundKeys(), iv, page.data(), page.data(),
                        pageSize);
            d = pageDigest(set->sha256, header, page);
        } else {
            crypto::aesCtrXcryptInPlace(aes, iv, page);
            crypto::Sha256 h;
            h.update(header);
            h.update(page);
            d = h.final();
        }
        page[1] = d[0]; // keep the digest live
    });
}

/** Page decrypt + verify: hash the ciphertext, then CTR-decrypt. */
HostResult
measurePageDecryptVerify(const crypto::Aes128& aes, const KernelSet* set,
                         int iters)
{
    Page page{};
    PageHeader header{};
    crypto::Iv iv{};
    return measureHost(pageSize, iters, [&](int i) {
        iv[0] = static_cast<std::uint8_t>(i);
        crypto::Digest d;
        if (set != nullptr) {
            d = pageDigest(set->sha256, header, page);
            page[1] = d[0];
            set->aesCtr(aes.roundKeys(), iv, page.data(), page.data(),
                        pageSize);
        } else {
            crypto::Sha256 h;
            h.update(header);
            h.update(page);
            d = h.final();
            page[1] = d[0];
            crypto::aesCtrXcryptInPlace(aes, iv, page);
        }
    });
}

/** AES-CTR alone over one page. */
HostResult
measureCtrPage(const crypto::Aes128& aes, kernels::AesCtrFn ctr, int iters)
{
    Page page{};
    crypto::Iv iv{};
    return measureHost(pageSize, iters, [&](int i) {
        iv[0] = static_cast<std::uint8_t>(i);
        ctr(aes.roundKeys(), iv, page.data(), page.data(), pageSize);
    });
}

/** SHA-256 compression alone over the 64 blocks of one page. */
HostResult
measureShaPage(kernels::Sha256CompressFn compress, int iters)
{
    Page page{};
    std::uint32_t state[8] = {};
    return measureHost(pageSize, iters, [&](int i) {
        page[0] = static_cast<std::uint8_t>(i + state[0]);
        compress(state, page.data(),
                 pageSize / crypto::sha256BlockSize);
    });
}

/**
 * Metadata-bundle MAC. The reference path constructs the HMAC key per
 * call (the pre-optimization interface re-hashed the ipad/opad blocks
 * every time); the optimized path reuses a prepared HmacKey midstate.
 */
HostResult
measureHmacSeal(std::span<const std::uint8_t> bundle, bool midstate,
                int iters)
{
    std::array<std::uint8_t, 32> key_bytes{};
    key_bytes[0] = 0x5e;
    crypto::HmacKey prepared{std::span<const std::uint8_t>(key_bytes)};
    return measureHost(bundle.size(), iters, [&](int i) {
        crypto::Digest d =
            midstate ? crypto::hmacSha256(prepared, bundle)
                     : crypto::hmacSha256(key_bytes, bundle);
        key_bytes[1] = static_cast<std::uint8_t>(d[0] + i);
    });
}

void
printHost(const HostResult& r)
{
    std::printf(" %8llu ns %6llu MB/s",
                static_cast<unsigned long long>(r.nsPerOp),
                static_cast<unsigned long long>(r.mbPerSec));
}

void
recordHost(bench::BenchReport& report, const std::string& key,
           const HostResult& r)
{
    report.setHost(key + ".ns", r.nsPerOp);
    report.setHost(key + ".mb_s", r.mbPerSec);
}

/**
 * `ref` vs `opt` (the public pipeline), with the speedup; records
 * `opt` and the speedup, the caller records `ref`.
 */
void
reportHostPair(bench::BenchReport& report, const char* name,
               const HostResult& ref, const HostResult& opt)
{
    std::uint64_t speedup_x100 =
        opt.nsPerOp == 0 ? 0 : ref.nsPerOp * 100 / opt.nsPerOp;
    std::printf("  %-20s", name);
    printHost(ref);
    std::printf("   ->");
    printHost(opt);
    std::printf("   (%llu.%02llux)\n",
                static_cast<unsigned long long>(speedup_x100 / 100),
                static_cast<unsigned long long>(speedup_x100 % 100));
    std::string key(name);
    recordHost(report, "opt." + key, opt);
    report.setHost("speedup." + key + "_x100", speedup_x100);
}

void
runHostSection(bench::BenchReport& report, bool quick)
{
    const int page_iters = quick ? 64 : 2048;
    const int mac_iters = quick ? 256 : 8192;

    crypto::AesKey key{};
    key[0] = 1;
    crypto::Aes128 aes(key);

    const KernelSet sets[] = {
        {"ref", kernels::aesCtrReference, kernels::sha256CompressReference},
        {"portable", kernels::aesCtrPortable,
         kernels::sha256CompressPortable},
        {"hw", kernels::aesCtrHardware(), kernels::sha256CompressHardware()},
    };
    const kernels::Selection& selected = kernels::selected();

    bench::header("Host wall-time per 4 KiB page, by crypto kernel");
    std::printf("  selected: AES-CTR %s, SHA-256 %s\n",
                selected.aesCtrName, selected.sha256CompressName);
    std::printf("  %-20s", "operation");
    for (const KernelSet& set : sets)
        std::printf(" %-23s", set.name);
    std::printf("\n");

    std::map<std::string, HostResult> ref;
    auto row = [&](const char* name, auto&& measure) {
        std::printf("  %-20s", name);
        for (const KernelSet& set : sets) {
            if (set.aesCtr == nullptr || set.sha256 == nullptr) {
                std::printf(" %-23s", "(not on this host)");
                continue;
            }
            HostResult r = measure(set);
            printHost(r);
            recordHost(report, std::string(set.name) + "." + name, r);
            if (set.aesCtr == kernels::aesCtrReference)
                ref[name] = r;
        }
        std::printf("\n");
    };
    row("aes_ctr_4k", [&](const KernelSet& set) {
        return measureCtrPage(aes, set.aesCtr, page_iters);
    });
    row("sha256_4k", [&](const KernelSet& set) {
        return measureShaPage(set.sha256, page_iters);
    });
    row("page_encrypt_mac", [&](const KernelSet& set) {
        return measurePageEncryptMac(aes, &set, page_iters);
    });
    row("page_decrypt_verify", [&](const KernelSet& set) {
        return measurePageDecryptVerify(aes, &set, page_iters);
    });

    // Each hardware AES-CTR kernel by name, so a log shows both where
    // the host has VAES, and says so where it has not.
    bench::header("Host wall-time per 4 KiB page, AES-CTR hardware "
                  "kernels");
    const std::pair<const char*, kernels::AesCtrFn> hw_ctr[] = {
        {"aesni", kernels::aesCtrAesni()},
        {"vaes", kernels::aesCtrVaes()},
    };
    for (const auto& [name, fn] : hw_ctr) {
        std::printf("  %-20s", name);
        if (fn == nullptr) {
            std::printf(" (not on this host)\n");
            continue;
        }
        HostResult r = measureCtrPage(aes, fn, page_iters);
        printHost(r);
        std::printf("%s\n", fn == selected.aesCtr ? " (selected)" : "");
        recordHost(report, std::string(name) + ".aes_ctr_4k", r);
    }

    // A metadata bundle the size sealFileResource produces for a
    // 16-page file resource (16 + 32 + 16 * 65 bytes).
    std::vector<std::uint8_t> bundle(16 + 32 + 16 * 65, 0x3c);

    bench::header("Host wall-time: reference kernels vs the public "
                  "pipeline");
    std::printf("  %-20s %-24s    %-24s\n", "operation",
                "reference", "optimized");
    reportHostPair(report, "page_encrypt_mac", ref["page_encrypt_mac"],
                   measurePageEncryptMac(aes, nullptr, page_iters));
    reportHostPair(report, "page_decrypt_verify",
                   ref["page_decrypt_verify"],
                   measurePageDecryptVerify(aes, nullptr, page_iters));
    HostResult hmac_ref = measureHmacSeal(bundle, false, mac_iters);
    recordHost(report, "ref.hmac_seal_1k", hmac_ref);
    reportHostPair(report, "hmac_seal_1k", hmac_ref,
                   measureHmacSeal(bundle, true, mac_iters));
}

// ---------------------------------------------------------------------------
// Section 2: simulated cycles of fault-driven page seals
// ---------------------------------------------------------------------------

/** Minimal guest OS for driving the engine directly. */
class BenchOs : public vmm::GuestOsHooks
{
  public:
    void
    map(Asid asid, GuestVA va, Gpa gpa)
    {
        ptes_[{asid, pageBase(va)}] =
            vmm::GuestPte{pageBase(gpa), true, true, true, false};
    }

    vmm::GuestPte
    translateGuest(Asid asid, GuestVA va) override
    {
        auto it = ptes_.find({asid, pageBase(va)});
        return it == ptes_.end() ? vmm::GuestPte{} : it->second;
    }

    void
    handleGuestPageFault(vmm::Vcpu&, GuestVA, vmm::AccessType) override
    {
        osh_panic("unexpected guest fault in bench harness");
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

constexpr std::uint64_t benchPages = 32;

/**
 * Engine harness with a cloaked region of `pages` pages (default
 * `benchPages`; the worker sweep uses 64). Fast paths are off (no
 * shadow retention, no victim cache) so every seal and decrypt pays
 * the full AES + SHA cost — the quantity the batch API is supposed to
 * leave untouched.
 */
struct Harness
{
    explicit Harness(std::uint64_t pages_ = benchPages)
        : pages(pages_), machine(sim::MachineConfig{512, 1, {}}),
          vmm(machine, 512), engine(vmm, 7, 4096)
    {
        vmm.setGuestOs(&os);
        vmm.setShadowRetention(false);
        engine.setVictimCacheCapacity(0);
        domain = engine.createDomain(appAsid, 1,
                                     cloak::programIdentity("bench"));
        for (std::uint64_t i = 0; i < pages; ++i) {
            os.map(appAsid, appVa + i * pageSize, gpa0 + i * pageSize);
            os.map(0, kernelVa + i * pageSize, gpa0 + i * pageSize);
        }
        resource = engine.registerRegion(domain, appVa, pages).value();
    }

    vmm::Vcpu
    appCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{appAsid, domain, false});
    }

    vmm::Vcpu
    kernelCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{0, systemDomain, true});
    }

    static constexpr Asid appAsid = 3;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa0 = 0x4000;
    static constexpr GuestVA kernelVa = 0x0000'8000'0000'0000ull + gpa0;

    std::uint64_t pages;
    sim::Machine machine;
    vmm::Vmm vmm;
    cloak::CloakEngine engine;
    BenchOs os;
    DomainId domain = 0;
    ResourceId resource = 0;
};

struct Ctx
{
    Ctx() : app(h.appCpu()), kernel(h.kernelCpu()) {}

    /** Touch every page for writing: all plaintext-dirty afterwards. */
    void
    dirtyAll()
    {
        for (std::uint64_t i = 0; i < benchPages; ++i)
            app.store64(Harness::appVa + i * pageSize, ++scratch);
    }

    Harness h;
    vmm::Vcpu app;
    vmm::Vcpu kernel;
    std::uint64_t scratch = 0;
};

/**
 * Fixed warmup + fixed iterations, like bench_t1: deterministic
 * averages, independent of host speed.
 */
std::uint64_t
fixedCycles(const std::function<void(Ctx&)>& prep,
            const std::function<void(Ctx&)>& op)
{
    constexpr int warmup = 2;
    constexpr int iters = 4;
    Ctx ctx;
    for (int i = 0; i < warmup; ++i) {
        prep(ctx);
        op(ctx);
    }
    Cycles total = 0;
    for (int i = 0; i < iters; ++i) {
        prep(ctx);
        Cycles before = ctx.h.machine.cost().cycles();
        op(ctx);
        total += ctx.h.machine.cost().cycles() - before;
    }
    return total / iters;
}

void
runSimSection(bench::BenchReport& report)
{
    bench::header("Simulated cycles: fault-driven page seals");

    // Seal 32 dirty pages for the kernel: one fault per page.
    std::uint64_t seal_single = fixedCycles(
        [](Ctx& c) { c.dirtyAll(); },
        [](Ctx& c) {
            for (std::uint64_t i = 0; i < benchPages; ++i)
                c.kernel.load64(Harness::kernelVa + i * pageSize);
        });

    std::printf("  seal %llu dirty pages: per-page faults %llu cycles\n",
                static_cast<unsigned long long>(benchPages),
                static_cast<unsigned long long>(seal_single));

    report.set("seal_single_32.sim_cycles", seal_single);
}

// ---------------------------------------------------------------------------
// Section 3: host wall-time, crypto worker-pool sweep
// ---------------------------------------------------------------------------

constexpr std::uint64_t sweepPages = 64;

/** Measured host time for one worker count, plus a determinism seal. */
struct SweepResult
{
    std::uint64_t encNsPerBatch = 0;
    crypto::Digest digest{};  ///< Frames + metadata + cycles at the end.
    Cycles simCycles = 0;
};

/**
 * Run `iters` dirty/encrypt-batch rounds over a fresh 64-page harness
 * with `workers` crypto lanes, timing only the engine batch call. The
 * untimed prep stores through the app's view, which faults every
 * sealed page back in (decrypt + verify) and dirties it.
 * Because every harness starts from the same seed and performs the
 * same operation sequence, the final frames, metadata and simulated
 * cycles must be identical for every worker count — the digest pins
 * that.
 */
SweepResult
runSweepOnce(unsigned workers, int iters)
{
    Harness h(sweepPages);
    h.engine.setCryptoWorkers(workers);
    auto app = h.appCpu();
    std::uint64_t scratch = 0;

    cloak::Resource* res =
        h.engine.metadata().lookup(h.resource).valueOr(nullptr);
    osh_assert(res != nullptr, "sweep resource exists");

    std::vector<cloak::PageCryptoItem> items(sweepPages);
    auto build_items = [&] {
        for (std::uint64_t i = 0; i < sweepPages; ++i) {
            items[i].pageIndex = i;
            items[i].meta = &h.engine.metadata().page(*res, i);
        }
    };

    SweepResult r;
    for (int it = 0; it < iters + 1; ++it) {
        // Untimed prep: fault in and dirty every page through the
        // app's view.
        for (std::uint64_t i = 0; i < sweepPages; ++i)
            app.store64(Harness::appVa + i * pageSize, ++scratch);

        build_items();
        std::uint64_t t0 = bench::hostNowNs();
        h.engine.encryptPages(*res, items);
        if (it > 0)  // first round is warmup
            r.encNsPerBatch += bench::hostNowNs() - t0;
    }
    r.encNsPerBatch /= static_cast<std::uint64_t>(iters);

    crypto::Sha256 seal;
    for (std::uint64_t i = 0; i < sweepPages; ++i) {
        auto frame = h.machine.memory().framePlain(
            h.vmm.pmap().translate(Harness::gpa0 + i * pageSize));
        seal.update(frame);
        const cloak::PageMeta& meta =
            h.engine.metadata().page(*res, i);
        seal.update(meta.iv);
        seal.update(meta.hash);
        std::uint8_t tail[9];
        std::memcpy(tail, &meta.version, 8);
        tail[8] = static_cast<std::uint8_t>(meta.state);
        seal.update(tail);
    }
    r.simCycles = h.machine.cost().cycles();
    std::uint8_t cyc[8];
    std::memcpy(cyc, &r.simCycles, sizeof(cyc));
    seal.update(cyc);
    r.digest = seal.final();
    return r;
}

void
runSweepSection(bench::BenchReport& report,
                const std::vector<unsigned>& threads, bool quick)
{
    const int iters = quick ? 2 : 8;
    constexpr std::uint64_t batchBytes = sweepPages * pageSize;

    bench::header("Host wall-time: page-crypto worker sweep "
                  "(64-page batch)");
    std::printf("  host reports %u hardware thread(s); results are "
                "informational, never gated\n",
                WorkerPool::hardwareWorkers());
    std::printf("  %-8s %-26s\n", "workers", "encrypt batch");

    SweepResult base{};
    for (std::size_t t = 0; t < threads.size(); ++t) {
        unsigned w = threads[t];
        SweepResult r = runSweepOnce(w, iters);
        if (t == 0)
            base = r;

        // Same seed + same ops must mean bit-identical output and
        // simulated cost at every worker count. This is the bench-side
        // restatement of the determinism tests; a divergence here is a
        // bug in the batch seal, not noise.
        osh_assert(r.simCycles == base.simCycles,
                   "worker sweep: simulated cycles diverged at w=%u", w);
        osh_assert(r.digest == base.digest,
                   "worker sweep: frame/metadata digest diverged at "
                   "w=%u", w);

        std::uint64_t enc_mb = bench::mbPerSec(batchBytes,
                                               r.encNsPerBatch);
        std::uint64_t enc_x100 =
            r.encNsPerBatch == 0
                ? 0 : base.encNsPerBatch * 100 / r.encNsPerBatch;
        std::printf("  %-8u %8llu ns %6llu MB/s   (%llu.%02llux)\n", w,
                    static_cast<unsigned long long>(r.encNsPerBatch),
                    static_cast<unsigned long long>(enc_mb),
                    static_cast<unsigned long long>(enc_x100 / 100),
                    static_cast<unsigned long long>(enc_x100 % 100));

        std::string k = "par.encrypt_64.w" + std::to_string(w);
        report.setHost(k + ".ns", r.encNsPerBatch);
        report.setHost(k + ".mb_s", enc_mb);
        report.setHost(k + ".speedup_x100", enc_x100);
    }
}

/** Parse "1,2,4,8" into worker counts; exits on malformed input. */
std::vector<unsigned>
parseThreadList(const char* arg)
{
    std::vector<unsigned> out;
    const char* p = arg;
    while (*p != '\0') {
        char* end = nullptr;
        unsigned long v = std::strtoul(p, &end, 10);
        if (end == p || v == 0 || v > 256 ||
            (*end != ',' && *end != '\0')) {
            std::fprintf(stderr,
                         "bad --threads list '%s' (want e.g. 1,2,4,8)\n",
                         arg);
            std::exit(1);
        }
        out.push_back(static_cast<unsigned>(v));
        p = *end == ',' ? end + 1 : end;
    }
    if (out.empty()) {
        std::fprintf(stderr, "--threads list is empty\n");
        std::exit(1);
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::vector<unsigned> threads = {1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = parseThreadList(argv[i] + 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--threads=1,2,4,8]\n",
                         argv[0]);
            return 1;
        }
    }

    osh::bench::BenchReport report("crypto");
    runHostSection(report, quick);
    runSweepSection(report, threads, quick);
    runSimSection(report);
    report.write();
    return 0;
}
