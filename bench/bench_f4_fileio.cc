/**
 * @file
 * Figure F4 — file-read bandwidth vs buffer size, and the marshalled
 * vs emulated I/O ablation.
 *
 * Reproduces the paper's file-I/O microbenchmark figure. Three series:
 *   - native: ordinary read() on the baseline system;
 *   - cloaked-marshalled: read() of an *unprotected* file from a
 *     cloaked process — every call traps and data is copied through
 *     the uncloaked bounce buffer;
 *   - cloaked-emulated: read() of a *protected* file — the shim
 *     serves it from the cloaked mapping, no kernel involvement per
 *     call (the paper's memory-mapped emulation of I/O).
 *
 * Expected shape: marshalling hurts most at small buffers; emulation
 * tracks native closely once the mapping is warm.
 *
 * Writes BENCH_f4.json: per series, the cycles of one timed pass
 * (`buf_<bytes>.<series>.pass_cycles`) plus the whole run's
 * captureSystem counters under the same prefix.
 */

#include "bench_common.hh"

namespace
{

using namespace osh;
using os::Env;

constexpr std::uint64_t fileBytes = 256 * 1024;

int
readerMain(Env& env)
{
    bool protected_file = env.args().at(0) == "1";
    std::uint64_t buf_bytes =
        std::strtoull(env.args().at(1).c_str(), nullptr, 10);

    std::string path;
    if (protected_file) {
        env.mkdir("/cloaked");
        path = "/cloaked/data.bin";
    } else {
        path = "/data.bin";
    }

    // Create the file.
    std::int64_t fd = env.open(path, os::openCreate | os::openRead |
                                         os::openWrite);
    if (fd < 0)
        return 1;
    GuestVA page = env.allocPages(1);
    for (std::uint64_t off = 0; off < fileBytes; off += pageSize) {
        for (GuestVA i = 0; i < pageSize; i += 8)
            env.store64(page + i, off + i);
        env.write(fd, page, pageSize);
    }

    // Warm pass + timed passes of sequential reads.
    GuestVA buf = env.allocPages(
        std::max<std::uint64_t>(1, roundUpToPage(buf_bytes) / pageSize));
    auto one_pass = [&] {
        env.lseek(fd, 0, os::seekSet);
        std::uint64_t total = 0;
        while (total < fileBytes) {
            std::int64_t got = env.read(fd, buf, buf_bytes);
            if (got <= 0)
                return false;
            total += static_cast<std::uint64_t>(got);
        }
        return true;
    };
    if (!one_pass())
        return 2;
    Cycles c0 = env.clock();
    for (int pass = 0; pass < 3; ++pass) {
        if (!one_pass())
            return 3;
    }
    Cycles c1 = env.clock();
    env.close(fd);

    env.mkdir("/results");
    std::int64_t rf = env.open("/results/fileio",
                               os::openCreate | os::openWrite |
                                   os::openTrunc);
    env.writeAll(static_cast<std::uint64_t>(rf),
                 formatString("%llu",
                              static_cast<unsigned long long>(
                                  (c1 - c0) / 3)));
    env.close(static_cast<std::uint64_t>(rf));
    return 0;
}

double
bandwidth(bench::BenchReport& report, const char* series, bool cloaked,
          bool protected_file, std::uint64_t buf_bytes)
{
    auto sys = bench::makeSystem(bench::BenchOptions{.cloaked = cloaked});
    sys->addProgram("reader", os::Program{readerMain, true, 64});
    auto r = sys->runProgram(
        "reader",
        {protected_file ? "1" : "0", std::to_string(buf_bytes)});
    if (r.status != 0)
        osh_fatal("reader failed: %d %s", r.status,
                  r.killReason.c_str());
    bench::reportPhase(*sys,
                       std::string("f4_") +
                           (cloaked ? "cloaked" : "native") +
                           (protected_file ? "_prot_" : "_plain_") +
                           std::to_string(buf_bytes));
    std::uint64_t cycles = std::strtoull(
        workloads::readGuestFile(*sys, "/results/fileio").c_str(),
        nullptr, 10);
    std::string prefix =
        "buf_" + std::to_string(buf_bytes) + "." + series;
    report.set(prefix + ".pass_cycles", cycles);
    report.captureSystem(prefix, *sys);
    // Bytes per kilocycle.
    return static_cast<double>(fileBytes) /
           (static_cast<double>(cycles) / 1000.0);
}

} // namespace

int
main()
{
    bench::header("Figure F4: read() bandwidth vs buffer size "
                  "(bytes/kcycle)");
    std::printf("%-10s %12s %18s %18s\n", "buffer", "native",
                "cloaked-marshal", "cloaked-emulated");
    bench::BenchReport report("f4");
    for (std::uint64_t buf : {256u, 1024u, 4096u, 16384u, 65536u}) {
        double native = bandwidth(report, "native", false, false, buf);
        double marshal = bandwidth(report, "marshal", true, false, buf);
        double emulated = bandwidth(report, "emulated", true, true, buf);
        std::printf("%7lluB %12.1f %18.1f %18.1f\n",
                    static_cast<unsigned long long>(buf), native,
                    marshal, emulated);
    }
    std::printf("\n(paper shape: marshalling is worst at small "
                "buffers; emulation approaches native)\n");
    report.write();
    return 0;
}
