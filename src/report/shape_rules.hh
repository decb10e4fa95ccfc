/**
 * @file
 * Declarative shape rules: the machine-checked form of the
 * EXPERIMENTS.md verdicts. A golden spec (a golden/shape/<bench>.json file) lists
 * rules over ResultRow cells; the engine evaluates them against the
 * RESULTS_<bench>.json files a bench run produced.
 *
 * Rule kinds:
 *  - ordering:  adjacent cells in `cells` must be non-increasing
 *               (each a >= next - slack; `strict` demands a > next).
 *               Encodes "who wins".
 *  - trend:     the cell series is monotone in `direction`
 *               ("increasing"/"decreasing"), each step tolerating a
 *               counter-move of `slack` measured units. Encodes the
 *               §5 threshold-sweep trends.
 *  - tolerance: |measured - target| <= abs_tol + rel_tol_pct% of
 *               |target|, where target is the rule's `expect` or the
 *               row's own paper value. Encodes "within a few points
 *               of the paper".
 *  - regime:    the cell lies inside [min, max] (either bound
 *               optional). Encodes regime membership and acceptance
 *               bars.
 *
 * Cells are addressed as "<cell>" within the spec's experiment or
 * "<experiment>:<cell>" across experiments. A rule whose referenced
 * experiment produced no rows at all is *skipped* (the bench did not
 * run — normal for partial CI runs) unless the caller requires
 * completeness; a rule whose experiment ran but whose cell is absent
 * FAILS, because that means an emitter regressed.
 */

#ifndef VPPROF_REPORT_SHAPE_RULES_HH
#define VPPROF_REPORT_SHAPE_RULES_HH

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/result_row.hh"

namespace vpprof
{
namespace report
{

enum class RuleKind { Ordering, Trend, Tolerance, Regime };

std::string_view ruleKindName(RuleKind kind);

struct ShapeRule
{
    std::string id;          ///< unique, e.g. "fig_5_1.prof90_beats_fsm"
    std::string experiment;  ///< default experiment for bare cell refs
    RuleKind kind = RuleKind::Regime;
    std::string note;        ///< human rationale, echoed in diagnostics

    std::vector<std::string> cells;  ///< refs; tolerance/regime use [0]

    // ordering / trend
    bool strict = false;
    double slack = 0.0;
    std::string direction;  ///< trend: "increasing" | "decreasing"

    // tolerance
    std::optional<double> expect;
    double absTol = 0.0;
    double relTolPct = 0.0;

    // regime
    std::optional<double> min;
    std::optional<double> max;
};

/** One golden spec file: rules sharing a default experiment. */
struct RuleSpec
{
    std::string experiment;
    std::vector<ShapeRule> rules;
};

/**
 * Parse a golden spec document:
 *   {"experiment": "fig_5_1", "rules": [{"id": ..., "kind": ...}]}
 * Unknown keys are rejected so a typo in a spec cannot silently relax
 * a check.
 */
std::optional<RuleSpec> parseRuleSpec(std::string_view text,
                                      std::string *error = nullptr);

/** All emitted rows, indexed by (experiment, cell). */
class ResultIndex
{
  public:
    void add(const ResultsFile &file);

    bool hasExperiment(const std::string &experiment) const;

    /**
     * Resolve a cell reference ("cell" or "experiment:cell") against
     * a default experiment. nullptr when absent.
     */
    const ResultRow *find(const std::string &default_experiment,
                          const std::string &ref) const;

    /** The experiment a reference points into. */
    static std::string experimentOf(const std::string &default_experiment,
                                    const std::string &ref);

    size_t size() const { return rows_.size(); }

  private:
    std::map<std::pair<std::string, std::string>, ResultRow> rows_;
};

struct RuleOutcome
{
    enum class Status { Pass, Fail, Skipped };

    std::string id;
    Status status = Status::Skipped;
    std::string diagnostic;  ///< per-rule values / failure reason
};

/** Evaluate one rule against the emitted rows. */
RuleOutcome evaluateRule(const ShapeRule &rule, const ResultIndex &index);

} // namespace report
} // namespace vpprof

#endif // VPPROF_REPORT_SHAPE_RULES_HH
