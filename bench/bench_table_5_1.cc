/**
 * @file
 * Table 5.1 — the fraction of potential allocation candidates admitted
 * by the profile-guided scheme relative to those the saturating-
 * counter scheme allocates (which is every value-producing
 * instruction), per threshold, averaged over the benchmarks.
 */

#include "bench_util.hh"

using namespace vpprof;
using namespace vpprof::bench;

int
main()
{
    banner("Table 5.1 - allocation candidates, profiling vs saturating "
           "counters",
           "Gabbay & Mendelson, MICRO-30 1997, Table 5.1");

    std::printf("%-10s", "benchmark");
    for (double t : kThresholds)
        std::printf(" %6.0f%%", t);
    std::printf("\n");

    const auto &workloads = suite().all();
    std::vector<std::vector<double>> fracs(workloads.size());

    // One cell per workload; the FSM candidate count and every
    // threshold's candidate count come from one fused replay.
    session().runner().forEach(workloads.size(), [&](size_t i) {
        const Workload &w = *workloads[i];
        std::string name(w.name());

        Program base = w.program();
        std::vector<Program> annotated;
        for (double threshold : kThresholds)
            annotated.push_back(annotatedAt(name, threshold));

        FiniteTableEvaluator fsm_eval(VpPolicy::Fsm,
                                      paperFiniteConfig(true));

        std::vector<FiniteTableEvaluator> prof_evals;
        prof_evals.reserve(kThresholds.size());
        EvaluatorBank bank;
        bank.addBlockSink(&fsm_eval, &base);
        for (size_t t = 0; t < kThresholds.size(); ++t) {
            prof_evals.emplace_back(VpPolicy::Profile,
                                    paperFiniteConfig(false));
            bank.addBlockSink(&prof_evals[t], &annotated[t]);
        }
        session().replayInto(w, 0, bank);

        FiniteTableStats fsm = fsm_eval.result();
        for (const FiniteTableEvaluator &eval : prof_evals)
            fracs[i].push_back(
                100.0 *
                static_cast<double>(eval.result().candidates) /
                static_cast<double>(fsm.candidates));
    });

    std::vector<double> sums(kThresholds.size(), 0.0);
    for (size_t i = 0; i < workloads.size(); ++i) {
        std::printf("%-10s", std::string(workloads[i]->name()).c_str());
        for (size_t t = 0; t < kThresholds.size(); ++t) {
            sums[t] += fracs[i][t];
            std::printf(" %6.1f%%", fracs[i][t]);
        }
        std::printf("\n");
    }

    std::printf("%-10s", "average");
    size_t n = workloads.size();
    for (size_t t = 0; t < kThresholds.size(); ++t)
        std::printf(" %6.1f%%", sums[t] / static_cast<double>(n));
    std::printf("\n");

    const double paper_avg[] = {24.0, 32.0, 35.0, 39.0, 47.0};
    for (size_t t = 0; t < kThresholds.size(); ++t) {
        std::string at = "@";
        at += std::to_string(static_cast<int>(kThresholds[t]));
        for (size_t i = 0; i < workloads.size(); ++i)
            emitResult("table_5_1",
                       std::string(workloads[i]->name()) + at,
                       fracs[i][t], std::nullopt, "%");
        emitResult("table_5_1", "average" + at,
                   sums[t] / static_cast<double>(n), paper_avg[t],
                   "%");
    }

    std::printf("\npaper (average row): 24%% / 32%% / 35%% / 39%% / "
                "47%% for thresholds 90..50.\nexpected shape: "
                "monotonically increasing with a looser threshold, and\n"
                "clearly below 100%% everywhere (profiling filters the "
                "candidate stream).\n");
    finishBench("bench_table_5_1");
    return 0;
}
