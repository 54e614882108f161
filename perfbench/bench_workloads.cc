#include "bench_workloads.hh"

#include "os/env.hh"
#include "workloads/workloads.hh"

#include <array>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>

namespace osh::perfbench
{

namespace
{

using os::Env;

std::uint64_t
splitmix(std::uint64_t& s)
{
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

/** Word-wise digest step: one multiply per 64-bit word, so the host
 *  time of a round is spent in the simulator, not in the digest. */
void
digestWord(std::uint64_t& h, std::uint64_t v)
{
    h = (h ^ v) * fnvPrime;
}

/** Independent input stream for (seed, round, purpose). */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t round, std::uint64_t salt)
{
    std::uint64_t s = seed ^ (round * 0xd1b54a32d192ed03ull) ^ salt;
    return splitmix(s);
}

std::uint64_t
argAt(Env& env, std::size_t i)
{
    const auto& args = env.args();
    return i < args.size() ? std::strtoull(args[i].c_str(), nullptr, 10)
                           : 0;
}

/** The exit record of @p pid counts as a clean exit with @p status. */
bool
exitedWith(system::System& sys, Pid pid, int status)
{
    const system::ExitResult* r = sys.resultOf(pid);
    return r != nullptr && !r->killed && r->status == status;
}

// ---------------------------------------------------------------------------
// tenants
// ---------------------------------------------------------------------------

/**
 * Waves of short cloaked wl.tenant processes (two or three private
 * pages, drawn from the seed; seeded stores, strided hash) on 4 vCPUs
 * with a 500-op tick, so a wave's tenants interleave across cores. One
 * unit is one tenant, one round is one wave; every exit status is
 * checked against the host mirror workloads::tenantStatus.
 */
class Tenants : public Workload
{
  public:
    static constexpr std::uint64_t waveWidth = 24;
    static constexpr std::uint64_t rounds = 48;

    explicit Tenants(std::uint64_t seed) : seed_(seed) {}

    system::SystemConfig::Builder
    configure() const override
    {
        return system::SystemConfig::Builder{}
            .seed(seed_)
            .vcpus(4)
            .preemptOpsPerTick(500);
    }

    void install(system::System& sys) override
    {
        workloads::registerAll(sys);
    }

    std::uint64_t roundsPerEpoch() const override { return rounds; }

    std::vector<Launch>
    round(std::uint64_t r) const override
    {
        std::vector<Launch> wave;
        for (std::uint64_t i = 0; i < waveWidth; ++i) {
            const std::uint64_t idx = r * waveWidth + i;
            wave.push_back({"wl.tenant",
                            {std::to_string(idx),
                             std::to_string(pagesOf(idx))}});
        }
        return wave;
    }

    RoundCheck
    check(system::System& sys, std::uint64_t r,
          const std::vector<Pid>& pids) override
    {
        RoundCheck c;
        for (std::uint64_t i = 0; i < pids.size(); ++i) {
            std::uint64_t idx = r * waveWidth + i;
            int expected =
                workloads::tenantStatus(seed_, idx, pagesOf(idx));
            if (corrupt_ && idx == 0)
                expected ^= 1;
            ++c.units;
            if (!exitedWith(sys, pids[i], expected))
                ++c.failed;
        }
        return c;
    }

    void freezeExpectations() override {}
    void corruptExpectation() override { corrupt_ = true; }

  private:
    /** Private pages of tenant @p idx: 2 or 3. */
    std::uint64_t
    pagesOf(std::uint64_t idx) const
    {
        return 2 + streamSeed(seed_, idx, 0x7e4a) % 2;
    }

    std::uint64_t seed_;
    bool corrupt_ = false;
};

// ---------------------------------------------------------------------------
// Digest-checked workloads
// ---------------------------------------------------------------------------

/**
 * A workload whose round is one cloaked process that computes a 64-bit
 * digest of everything it read. The process hands the digest to the
 * host through a slot keyed by round; the native reference epoch
 * records the expectations, every later epoch must reproduce them.
 */
class DigestWorkload : public Workload
{
  public:
    RoundCheck
    check(system::System& sys, std::uint64_t r,
          const std::vector<Pid>& pids) override
    {
        RoundCheck c;
        c.units = unitsOf(r);
        auto got = digests_.find(r);
        bool ok = pids.size() == 1 && exitedWith(sys, pids[0], 0) &&
                  got != digests_.end();
        if (ok) {
            if (recording_) {
                expected_[r] = got->second;
            } else {
                auto want = expected_.find(r);
                ok = want != expected_.end() && want->second == got->second;
            }
        }
        digests_.erase(r);
        if (!ok)
            c.failed = c.units;
        return c;
    }

    void freezeExpectations() override { recording_ = false; }

    void
    corruptExpectation() override
    {
        expected_[0] ^= 1;
    }

  protected:
    /** Units of work in round @p r. */
    virtual std::uint64_t unitsOf(std::uint64_t r) const = 0;

    /** Register @p main as cloaked program @p name; its return value
     *  is the exit status, the digest goes to the round's slot. */
    void
    addProgram(system::System& sys, const std::string& name,
               std::function<int(Env&, std::uint64_t&)> main)
    {
        os::Program p;
        p.cloaked = true;
        p.main = [this, main](Env& env) {
            std::uint64_t digest = 0;
            int status = main(env, digest);
            if (status == 0)
                digests_[argAt(env, 0)] = digest;
            return status;
        };
        sys.addProgram(name, std::move(p));
    }

  private:
    bool recording_ = true;
    std::map<std::uint64_t, std::uint64_t> expected_;
    /** Written by the guest thread; the scheduler's handoff orders the
     *  write before System::run returns to the harness. */
    std::map<std::uint64_t, std::uint64_t> digests_;
};

// ---------------------------------------------------------------------------
// fileserve
// ---------------------------------------------------------------------------

/**
 * One server process per round on 1 vCPU: it writes a 256 KiB
 * protected file, then serves 1 KiB range reads of it to an uncloaked
 * sink, first on the serial path (lseek + read + write per request),
 * then in depth-8 pread/pwrite batches. The batched phase serves three
 * times the requests, so both phases take similar host time: a per-trap
 * optimization shows in one half and not the other. Every round does
 * the same work, so the round-time percentiles see one population.
 * One unit is one request.
 */
class Fileserve : public DigestWorkload
{
  public:
    static constexpr std::uint64_t fileBytes = 256 * 1024;
    static constexpr std::uint64_t requestBytes = 1024;
    static constexpr std::uint64_t serialRequests = 1024;
    static constexpr std::uint64_t batchedRequests = 3072;
    static constexpr std::uint64_t batchDepth = 8;
    static constexpr std::uint64_t rounds = 16;

    explicit Fileserve(std::uint64_t seed) : seed_(seed) {}

    system::SystemConfig::Builder
    configure() const override
    {
        return system::SystemConfig::Builder{}.seed(seed_);
    }

    void
    install(system::System& sys) override
    {
        addProgram(sys, "pb.server",
                   [this](Env& env, std::uint64_t& digest) {
                       return serve(env, digest);
                   });
    }

    std::uint64_t roundsPerEpoch() const override { return rounds; }

    std::vector<Launch>
    round(std::uint64_t r) const override
    {
        return {{"pb.server", {std::to_string(r)}}};
    }

  protected:
    std::uint64_t
    unitsOf(std::uint64_t) const override
    {
        return serialRequests + batchedRequests;
    }

  private:
    int
    serve(Env& env, std::uint64_t& digest) const
    {
        const std::uint64_t round = argAt(env, 0);
        const std::string path = "/cloaked/serve." + env.args()[0];
        env.mkdir("/cloaked");
        env.mkdir("/www");

        // Write the protected file one page at a time.
        std::int64_t fd = env.open(path, os::openCreate | os::openWrite |
                                             os::openTrunc);
        if (fd < 0)
            return 40;
        GuestVA chunk = env.allocPages(1);
        std::array<std::uint8_t, pageSize> page;
        std::uint64_t fs = streamSeed(seed_, round, 0xf11e);
        for (std::uint64_t off = 0; off < fileBytes; off += pageSize) {
            for (std::uint64_t i = 0; i < pageSize; i += 8) {
                std::uint64_t w = splitmix(fs);
                std::memcpy(page.data() + i, &w, 8);
            }
            env.writeBytes(chunk, page);
            if (env.write(static_cast<std::uint64_t>(fd), chunk,
                          pageSize) != static_cast<std::int64_t>(pageSize))
                return 41;
        }
        env.close(static_cast<std::uint64_t>(fd));

        fd = env.open(path, os::openRead);
        std::int64_t sink = env.open("/www/serve.out",
                                     os::openCreate | os::openWrite |
                                         os::openTrunc);
        if (fd < 0 || sink < 0)
            return 42;
        const auto ufd = static_cast<std::uint64_t>(fd);
        const auto usink = static_cast<std::uint64_t>(sink);
        const std::uint64_t span = fileBytes - requestBytes;
        std::uint64_t qs = streamSeed(seed_, round, 0x5e71);
        std::array<std::uint8_t, requestBytes> got;
        digest = fnvOffset;
        auto fold = [&](GuestVA buf) {
            env.readBytes(buf, got);
            for (std::uint64_t i = 0; i < requestBytes; i += 8) {
                std::uint64_t w = 0;
                std::memcpy(&w, got.data() + i, 8);
                digestWord(digest, w);
            }
        };

        GuestVA buf = env.allocPages(1);
        for (std::uint64_t r = 0; r < serialRequests; ++r) {
            env.lseek(ufd, static_cast<std::int64_t>(splitmix(qs) % span),
                      os::seekSet);
            if (env.read(ufd, buf, requestBytes) !=
                static_cast<std::int64_t>(requestBytes))
                return 43;
            fold(buf);
            if (env.write(usink, buf, requestBytes) !=
                static_cast<std::int64_t>(requestBytes))
                return 44;
            env.lseek(usink, 0, os::seekSet);
        }

        GuestVA bufs = env.allocPages(batchDepth);
        std::vector<os::BatchEntry> entries;
        std::vector<std::int64_t> results;
        for (std::uint64_t r = 0; r < batchedRequests; r += batchDepth) {
            entries.clear();
            for (std::uint64_t c = 0; c < batchDepth; ++c)
                entries.push_back({os::Sys::Pread,
                                   {ufd, bufs + c * pageSize, requestBytes,
                                    splitmix(qs) % span}});
            if (env.submitBatch(entries, results) !=
                static_cast<std::int64_t>(batchDepth))
                return 45;
            entries.clear();
            for (std::uint64_t c = 0; c < batchDepth; ++c) {
                if (results[c] != static_cast<std::int64_t>(requestBytes))
                    return 46;
                fold(bufs + c * pageSize);
                entries.push_back({os::Sys::Pwrite,
                                   {usink, bufs + c * pageSize,
                                    requestBytes, 0}});
            }
            if (env.submitBatch(entries, results) !=
                static_cast<std::int64_t>(batchDepth))
                return 45;
            for (std::int64_t res : results)
                if (res < 0)
                    return 47;
        }
        env.close(usink);
        env.close(ufd);
        if (env.unlink(path) != 0)
            return 48;
        return 0;
    }

    std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// paging
// ---------------------------------------------------------------------------

/**
 * One pager process per round on 1 vCPU with a small guest frame
 * budget: it initializes a working set about twice that budget, then
 * makes seeded random page touches in passes that alternate read-only
 * and read-modify-write. Every miss is a swap-in (unseal + verify) and
 * an eviction (a seal when dirty, the clean-page path or the victim
 * cache when not). One unit is one random page touch.
 */
class Paging : public DigestWorkload
{
  public:
    static constexpr std::uint64_t guestFrames = 128;
    static constexpr std::uint64_t workingSetPages = 256;
    static constexpr std::uint64_t passes = 4;
    static constexpr std::uint64_t touchesPerPass = 256;
    static constexpr std::uint64_t rounds = 24;

    explicit Paging(std::uint64_t seed) : seed_(seed) {}

    system::SystemConfig::Builder
    configure() const override
    {
        return system::SystemConfig::Builder{}.seed(seed_).guestFrames(
            guestFrames);
    }

    void
    install(system::System& sys) override
    {
        addProgram(sys, "pb.pager",
                   [this](Env& env, std::uint64_t& digest) {
                       return page(env, digest);
                   });
    }

    std::uint64_t roundsPerEpoch() const override { return rounds; }

    std::vector<Launch>
    round(std::uint64_t r) const override
    {
        return {{"pb.pager", {std::to_string(r)}}};
    }

  protected:
    std::uint64_t
    unitsOf(std::uint64_t) const override
    {
        return passes * touchesPerPass;
    }

  private:
    int
    page(Env& env, std::uint64_t& digest) const
    {
        const std::uint64_t round = argAt(env, 0);
        GuestVA buf = env.allocPages(workingSetPages);
        std::uint64_t is = streamSeed(seed_, round, 0x9a6e);
        for (std::uint64_t p = 0; p < workingSetPages; ++p)
            env.store64(buf + p * pageSize, splitmix(is) | 1);

        std::uint64_t ts = streamSeed(seed_, round, 0x70c4);
        digest = fnvOffset;
        for (std::uint64_t pass = 0; pass < passes; ++pass) {
            const bool write = pass % 2 == 1;
            for (std::uint64_t i = 0; i < touchesPerPass; ++i) {
                GuestVA va =
                    buf + (splitmix(ts) % workingSetPages) * pageSize;
                std::uint64_t v = env.load64(va);
                if (write)
                    env.store64(va, v * fnvPrime + pass);
                digestWord(digest, v);
            }
        }
        return 0;
    }

    std::uint64_t seed_;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"tenants", "fileserve",
                                                   "paging"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "tenants")
        return std::make_unique<Tenants>(seed);
    if (name == "fileserve")
        return std::make_unique<Fileserve>(seed);
    if (name == "paging")
        return std::make_unique<Paging>(seed);
    return nullptr;
}

} // namespace osh::perfbench
