/**
 * @file
 * Attack-campaign driver.
 *
 * Runs a seeded hostile-kernel campaign (AttackPoint × victim
 * workload × seed) and prints the deterministic verdict table plus the
 * aggregate metrics report. CI runs this with fixed seeds and diffs
 * the table against a committed expectation.
 *
 * Usage:
 *   attack_campaign [--seeds=1,2,3] [--points=a,b] [--workloads=x,y]
 *                   [--vcpus=N] [--async-depth=N]
 *                   [--timing-hardening=0|1] [--out=FILE]
 *                   [--expect=FILE] [--quiet]
 *
 * Exit codes:
 *   0  campaign clean (no LEAK, no CRASH, expectation matched if given)
 *   1  at least one LEAK or CRASH cell
 *   2  verdict table differs from --expect file
 *   3  bad arguments
 */

#include "attack/campaign.hh"
#include "trace/export.hh"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using osh::attack::AttackPoint;

std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
parsePoint(const std::string& name, AttackPoint& out)
{
    for (AttackPoint p : osh::attack::allAttackPoints()) {
        if (name == osh::attack::attackPointName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

int
usage(const std::string& bad)
{
    std::cerr << "attack_campaign: bad argument: " << bad << "\n"
              << "usage: attack_campaign [--seeds=1,2,3] "
                 "[--points=a,b] [--workloads=x,y] [--vcpus=N] "
                 "[--async-depth=N] [--timing-hardening=0|1] "
                 "[--out=FILE] [--expect=FILE] [--quiet]\n"
              << "points:";
    for (AttackPoint p : osh::attack::allAttackPoints())
        std::cerr << " " << osh::attack::attackPointName(p);
    std::cerr << "\n";
    return 3;
}

} // namespace

int
main(int argc, char** argv)
{
    osh::attack::CampaignConfig config;
    std::string out_path;
    std::string expect_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const std::string& prefix) {
            return arg.substr(prefix.size());
        };
        if (arg.rfind("--seeds=", 0) == 0) {
            config.seeds.clear();
            for (const std::string& s : splitCommas(value("--seeds="))) {
                try {
                    config.seeds.push_back(std::stoull(s));
                } catch (const std::exception&) {
                    return usage(arg);
                }
            }
        } else if (arg.rfind("--points=", 0) == 0) {
            for (const std::string& s :
                 splitCommas(value("--points="))) {
                AttackPoint p;
                if (!parsePoint(s, p))
                    return usage(arg);
                config.points.push_back(p);
            }
        } else if (arg.rfind("--workloads=", 0) == 0) {
            config.workloads = splitCommas(value("--workloads="));
        } else if (arg.rfind("--vcpus=", 0) == 0) {
            // Verdicts are vCPU-count invariant; this exercises the
            // SMP world-switch paths against the same expectations.
            try {
                config.vcpus = std::stoull(value("--vcpus="));
            } catch (const std::exception&) {
                return usage(arg);
            }
            if (config.vcpus == 0)
                return usage(arg);
        } else if (arg.rfind("--async-depth=", 0) == 0) {
            // Verdicts are depth-invariant (the pipeline defers only
            // cycle charges); this exercises the async eviction and
            // drain-barrier paths against the same expectations.
            try {
                config.asyncDepth =
                    std::stoull(value("--async-depth="));
            } catch (const std::exception&) {
                return usage(arg);
            }
        } else if (arg.rfind("--timing-hardening=", 0) == 0) {
            // 1 (default): virtualized clock + constant-cost cloak on
            // every timing cell — the hardened table CI replays.
            // 0: demonstrate the timing LEAK cells the knobs close.
            std::string v = value("--timing-hardening=");
            if (v == "0") {
                config.timingHardening = false;
            } else if (v == "1") {
                config.timingHardening = true;
            } else {
                return usage(arg);
            }
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = value("--out=");
        } else if (arg.rfind("--expect=", 0) == 0) {
            expect_path = value("--expect=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(arg);
        }
    }

    osh::attack::CampaignReport report;
    try {
        report = osh::attack::runCampaign(config);
    } catch (const std::invalid_argument& e) {
        std::cerr << "attack_campaign: " << e.what() << "\n";
        return 3;
    }

    std::string table = report.table();
    if (!quiet) {
        std::cout << table << "\n"
                  << osh::trace::metricsReport(report.metrics,
                                               "attack campaign");
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << table;
        if (!out) {
            std::cerr << "attack_campaign: cannot write " << out_path
                      << "\n";
            return 3;
        }
    }

    if (!expect_path.empty()) {
        std::ifstream in(expect_path);
        if (!in) {
            std::cerr << "attack_campaign: cannot read " << expect_path
                      << "\n";
            return 3;
        }
        std::stringstream expect;
        expect << in.rdbuf();
        if (expect.str() != table) {
            std::cerr << "attack_campaign: verdict table differs from "
                      << expect_path << "\n--- expected ---\n"
                      << expect.str() << "--- actual ---\n"
                      << table;
            return 2;
        }
    }

    if (!report.clean()) {
        std::cerr << "attack_campaign: LEAK/CRASH cells present\n";
        for (const auto& c : report.cells) {
            if (c.verdict == osh::attack::Verdict::Leak ||
                c.verdict == osh::attack::Verdict::Crash) {
                std::cerr << "  seed=" << c.seed << " point="
                          << osh::attack::attackPointName(c.point)
                          << " workload=" << c.workload << " -> "
                          << osh::attack::verdictName(c.verdict)
                          << " (" << c.detail << ")\n";
            }
        }
        return 1;
    }
    return 0;
}
