/**
 * @file
 * Figures 5.3 and 5.4 — with the paper's finite predictor (512-entry,
 * 2-way stride table): the percentage change in total correct
 * predictions (5.3) and total incorrect predictions (5.4) of the
 * profile-guided scheme relative to the saturating-counter scheme.
 *
 * Positive numbers in 5.3 and negative numbers in 5.4 are wins.
 */

#include "bench_util.hh"

using namespace vpprof;
using namespace vpprof::bench;

namespace
{

double
deltaPct(uint64_t ours, uint64_t theirs)
{
    if (theirs == 0)
        return 0.0;
    return 100.0 * (static_cast<double>(ours) /
                        static_cast<double>(theirs) -
                    1.0);
}

} // namespace

int
main()
{
    banner("Figures 5.3 / 5.4 - correct/incorrect predictions vs FSM "
           "(512-entry 2-way)",
           "Gabbay & Mendelson, MICRO-30 1997, Figures 5.3 and 5.4");

    struct Row
    {
        std::string name;
        std::vector<double> d_correct;
        std::vector<double> d_incorrect;
        uint64_t fsm_evictions = 0;
        std::vector<uint64_t> prof_evictions;
    };
    const auto &workloads = suite().all();
    std::vector<Row> rows(workloads.size());

    // One cell per workload; the FSM baseline and every threshold's
    // finite table consume one fused replay of the cached trace.
    session().runner().forEach(workloads.size(), [&](size_t i) {
        const Workload &w = *workloads[i];
        Row &row = rows[i];
        row.name = w.name();

        Program base = w.program();
        std::vector<Program> annotated;
        for (double threshold : kThresholds)
            annotated.push_back(annotatedAt(row.name, threshold));

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
        row.fsm_evictions = fsm.evictions;
        for (const FiniteTableEvaluator &eval : prof_evals) {
            FiniteTableStats prof = eval.result();
            row.d_correct.push_back(
                deltaPct(prof.correctTaken, fsm.correctTaken));
            row.d_incorrect.push_back(
                deltaPct(prof.incorrectTaken, fsm.incorrectTaken));
            row.prof_evictions.push_back(prof.evictions);
        }
    });

    auto print_series = [&](const char *title,
                            const std::vector<double> Row::*member) {
        std::printf("%s\n", title);
        std::printf("%-10s", "benchmark");
        for (double t : kThresholds)
            std::printf(" %8.0f%%", t);
        std::printf("\n");
        for (const Row &row : rows) {
            std::printf("%-10s", row.name.c_str());
            for (double d : row.*member)
                std::printf(" %+8.1f", d);
            std::printf("\n");
        }
        std::printf("\n");
    };

    print_series("Figure 5.3: increase in total correct predictions "
                 "[%]",
                 &Row::d_correct);
    print_series("Figure 5.4: increase in total incorrect predictions "
                 "[%] (negative = fewer)",
                 &Row::d_incorrect);

    std::printf("table pressure (LRU evictions, FSM vs profile@90):\n");
    for (const Row &row : rows) {
        std::printf("  %-10s %10llu -> %llu\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.fsm_evictions),
                    static_cast<unsigned long long>(
                        row.prof_evictions[0]));
    }

    std::printf(
        "\npaper's shape: big-working-set benchmarks (go, gcc, li, "
        "perl, vortex)\nfind thresholds with BOTH more corrects and "
        "fewer incorrects; the\nsmall-working-set ones (m88ksim, "
        "compress, ijpeg, mgrid) cannot, because\nthe 512-entry table "
        "already holds their whole working set.\n");
    for (const Row &row : rows) {
        bool both_axes_win = false;
        for (size_t t = 0; t < kThresholds.size(); ++t) {
            std::string at = "@";
            at += std::to_string(static_cast<int>(kThresholds[t]));
            emitResult("fig_5_3_5_4", row.name + "/d_correct" + at,
                       row.d_correct[t], std::nullopt, "%");
            emitResult("fig_5_3_5_4", row.name + "/d_incorrect" + at,
                       row.d_incorrect[t], std::nullopt, "%");
            both_axes_win |=
                row.d_correct[t] > 0.0 && row.d_incorrect[t] < 0.0;
        }
        // 1 = some threshold wins on both axes (more corrects AND
        // fewer incorrects), the paper's working-set regime split.
        emitResult("fig_5_3_5_4", row.name + "/both_axes_win",
                   both_axes_win ? 1.0 : 0.0, std::nullopt, "");
    }
    finishBench("bench_fig_5_3_5_4");
    return 0;
}
