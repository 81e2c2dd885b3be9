/**
 * @file
 * Golden-run regression harness.  Every deterministic benchmark binary
 * is executed in its smoke (reduced-duration) mode and its stdout is
 * byte-compared against a checked-in snapshot under tests/golden/.
 * Any change to model timing, cost parameters, scheduling order, or
 * table formatting shows up as a diff here instead of silently
 * shifting the paper figures.
 *
 * To regenerate the snapshots after an intentional change:
 *
 *     VRIO_UPDATE_GOLDEN=1 ctest --test-dir build -L golden
 *
 * then review the diff under tests/golden/ like any other code change.
 *
 * The micro_* benchmarks are excluded: they report wall-clock-derived
 * rates (events/sec) and are inherently nondeterministic.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

namespace {

struct GoldenCase {
    /** Snapshot name: tests/golden/<name>.txt */
    const char *name;
    /** Benchmark binary under the build tree's bench/ directory. */
    const char *binary;
    /** Extra environment assignments, e.g. a mode switch. */
    const char *extra_env;
};

// Print a case as its snapshot name; the default printer would dump
// the string pointers, which differ on every run.
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

// VRIO_BENCH_SMOKE=1 shrinks every sweep to a short deterministic
// window; abl_resilience honors it through the same helper.  The
// fig09 loss-sweep entry additionally locks down the adaptive
// guest-TCP stack (cwnd, adaptive RTO, Gilbert-Elliott loss).
const GoldenCase kCases[] = {
    {"abl_batch", "abl_batch", ""},
    {"abl_channel", "abl_channel", ""},
    {"abl_energy", "abl_energy", ""},
    {"abl_mtu_sweep", "abl_mtu_sweep", ""},
    {"abl_resilience", "abl_resilience", ""},
    {"abl_rx_ring", "abl_rx_ring", ""},
    {"abl_steering", "abl_steering", ""},
    {"fig01_price_trends", "fig01_price_trends", ""},
    {"fig03_ssd_consolidation", "fig03_ssd_consolidation", ""},
    {"fig05_apachebench_polling", "fig05_apachebench_polling", ""},
    {"fig07_netperf_rr_latency", "fig07_netperf_rr_latency", ""},
    {"fig09_netperf_stream", "fig09_netperf_stream", ""},
    {"fig09_loss_sweep", "fig09_netperf_stream",
     "VRIO_FIG09_LOSS_SWEEP=1"},
    {"fig10_cycles_per_packet", "fig10_cycles_per_packet", ""},
    {"fig11_equal_cores", "fig11_equal_cores", ""},
    {"fig12_macrobenchmarks", "fig12_macrobenchmarks", ""},
    {"fig13_iohost_scalability", "fig13_iohost_scalability", ""},
    {"fig13_rack_scaling", "fig13_rack_scaling", ""},
    {"fig14_filebench_ramdisk", "fig14_filebench_ramdisk", ""},
    {"fig15_sidecore_utilization", "fig15_sidecore_utilization", ""},
    {"fig16_consolidation", "fig16_consolidation", ""},
    {"fig17_nvme_scaling", "fig17_nvme_scaling", ""},
    {"fig19_warm_failover", "fig19_warm_failover", ""},
    {"tab01_tab02_rack_prices", "tab01_tab02_rack_prices", ""},
    {"tab03_interrupt_accounting", "tab03_interrupt_accounting", ""},
    {"tab04_tail_latency", "tab04_tail_latency", ""},
    {"tab04_multitenant_qos", "tab04_multitenant_qos", ""},
};

bool
updateMode()
{
    const char *env = std::getenv("VRIO_UPDATE_GOLDEN");
    return env && env[0] == '1';
}

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(VRIO_GOLDEN_DIR) + "/" + c.name + ".txt";
}

/** Run the benchmark in smoke mode and capture its stdout+stderr. */
std::string
runBench(const GoldenCase &c, int &exit_code)
{
    // Snapshots are captured in the deterministic golden mode: one
    // event loop, regardless of what the surrounding environment (a
    // developer shell, a CI parallel lane) exports.
    std::string cmd = "env VRIO_BENCH_SMOKE=1 VRIO_SIM_THREADS=1 ";
    if (c.extra_env[0]) {
        cmd += c.extra_env;
        cmd += ' ';
    }
    cmd += std::string(VRIO_BENCH_BIN_DIR) + "/" + c.binary + " 2>&1";

    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        exit_code = -1;
        return {};
    }
    std::string out;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
        out.append(buf.data(), n);
    exit_code = pclose(pipe);
    return out;
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = bool(in);
    if (!ok)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** First line where the two captures diverge, for readable failures. */
std::string
firstDiff(const std::string &want, const std::string &got)
{
    std::istringstream ws(want), gs(got);
    std::string wl, gl;
    for (int line = 1;; ++line) {
        bool wok = bool(std::getline(ws, wl));
        bool gok = bool(std::getline(gs, gl));
        if (!wok && !gok)
            return "outputs are equal";
        if (wl != gl || wok != gok) {
            std::ostringstream d;
            d << "first difference at line " << line << ":\n"
              << "  golden: " << (wok ? wl : "<eof>") << "\n"
              << "  actual: " << (gok ? gl : "<eof>");
            return d.str();
        }
    }
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase>
{
  protected:
    // Belt and braces with the `env` prefix in runBench(): the child
    // environment is inherited, so pin golden mode here too.
    static void SetUpTestSuite() { setenv("VRIO_SIM_THREADS", "1", 1); }
};

TEST_P(GoldenTest, MatchesSnapshot)
{
    const GoldenCase &c = GetParam();

    int exit_code = 0;
    std::string out = runBench(c, exit_code);
    ASSERT_EQ(exit_code, 0)
        << c.binary << " exited with status " << exit_code;
    ASSERT_FALSE(out.empty()) << c.binary << " produced no output";

    std::string path = goldenPath(c);
    if (updateMode()) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(bool(f)) << "cannot write " << path;
        f << out;
        std::printf("updated %s (%zu bytes)\n", path.c_str(),
                    out.size());
        return;
    }

    bool have_golden = false;
    std::string want = readFile(path, have_golden);
    ASSERT_TRUE(have_golden)
        << "missing snapshot " << path
        << "; generate it with VRIO_UPDATE_GOLDEN=1";
    EXPECT_TRUE(want == out)
        << c.name << " diverged from " << path << "\n"
        << firstDiff(want, out)
        << "\nif the change is intentional, regenerate with "
           "VRIO_UPDATE_GOLDEN=1 and commit the new snapshot.";
}

INSTANTIATE_TEST_SUITE_P(
    Bench, GoldenTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
