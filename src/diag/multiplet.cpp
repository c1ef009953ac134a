#include "diag/multiplet.hpp"

#include <algorithm>
#include <chrono>

#include "diag/residual_index.hpp"
#include "obs/metrics.hpp"

namespace mdd {

namespace {

/// Candidates a tripped deadline left unscored (partial-result telemetry).
void count_rank_dropped(std::size_t n) {
  static obs::Counter& dropped =
      obs::registry().counter("diag.rank_dropped");
  dropped.inc(n);
}

bool exact_match(const MatchCounts& m) {
  return m.tfsp == 0 && m.tpsf == 0;
}

}  // namespace

DiagnosisReport diagnose_multiplet(DiagnosisContext& ctx,
                                   const MultipletOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  DiagnosisReport report;
  report.method = "multiplet";

  const ErrorSignature& observed = ctx.observed();
  // One observed signature scored against many composites/solos: expand it
  // once (identical counts to the pairwise match()).
  const SignatureMatcher matcher(observed);

  // Deadline polling: coarse boundaries (rounds, passes) poll the token
  // directly; per-candidate loops go through throttled checkpoints. Once
  // tripped, every stage below winds down and the best multiplet found so
  // far is reported with timed_out set.
  bool timed_out = false;
  auto expired = [&] {
    if (!timed_out && options.cancel != nullptr && options.cancel->cancelled())
      timed_out = true;
    return timed_out;
  };

  // Solo signatures projected onto the observed bits, for the residual
  // shortlist. Shortlists rank by TFSF against the residual only — no
  // misprediction penalty: a masked defect legitimately predicts errors
  // the tester never saw, and only exact composite evaluation can judge
  // that. A tripped deadline leaves the index partial (or empty):
  // shortlists then surface fewer (or no) extensions and the greedy winds
  // down.
  const ResidualIndex index(ctx, options.cancel);
  report.n_candidates_scored = index.n_indexed();
  if (index.n_indexed() < ctx.n_candidates()) {
    timed_out = true;
    count_rank_dropped(ctx.n_candidates() - index.n_indexed());
  }
  using H = ResidualIndex::Entry;

  struct State {
    std::vector<std::size_t> members;
    ErrorSignature composite;
    double score;
  };
  const ErrorSignature empty_sig(observed.n_patterns(), observed.n_outputs());
  const double empty_score =
      score_of(matcher.match(empty_sig), options.weights);

  // Greedy rounds from a given state: per round, shortlist against the
  // residual, evaluate each extension exactly on the composite machine,
  // commit the best strict improvement.
  auto extend_greedy = [&](State state) {
    std::vector<char> in_m(ctx.n_candidates(), 0);
    for (std::size_t m : state.members) in_m[m] = 1;
    while (state.members.size() < options.max_multiplicity) {
      if (expired()) break;
      if (!observed.empty() && exact_match(matcher.match(state.composite)))
        break;
      const auto heur = index.shortlist(index.residual(state.composite), in_m,
                                        options.shortlist);
      if (heur.empty()) break;

      std::size_t best_index = ctx.n_candidates();
      double best_score = state.score;
      ErrorSignature best_sig;
      std::vector<Fault> faults;
      faults.reserve(state.members.size() + 1);
      for (std::size_t m : state.members)
        faults.push_back(ctx.candidate(m));
      for (const H& h : heur) {
        if (expired()) break;
        faults.push_back(ctx.candidate(h.index));
        ErrorSignature sig = ctx.multiplet_signature(faults);
        faults.pop_back();
        const double s = score_of(matcher.match(sig), options.weights);
        // Strict improvement required; ties resolved by shortlist order
        // (highest residual TFSF first), which is deterministic.
        if (s > best_score) {
          best_index = h.index;
          best_score = s;
          best_sig = std::move(sig);
        }
      }
      if (best_index == ctx.n_candidates() ||
          best_score <= state.score + options.min_improvement)
        break;
      state.members.push_back(best_index);
      in_m[best_index] = 1;
      state.composite = std::move(best_sig);
      state.score = best_score;
    }
    return state;
  };

  // Restart seeding: the dominant greedy failure mode is a wrong first
  // pick that jointly mimics several defects; running the greedy
  // continuation from each of the best few round-1 extensions and keeping
  // the best final multiplet recovers most of those cases.
  State best{{}, empty_sig, empty_score};
  {
    std::vector<char> none(ctx.n_candidates(), 0);
    const auto heur0 =
        index.shortlist(index.residual(empty_sig), none, options.shortlist);
    struct Seed {
      std::size_t index;
      double score;
      ErrorSignature sig;
    };
    std::vector<Seed> seeds;
    for (const H& h : heur0) {
      ErrorSignature sig = ctx.solo_signature(h.index);
      const double s = score_of(matcher.match(sig), options.weights);
      if (s > empty_score + options.min_improvement)
        seeds.push_back({h.index, s, std::move(sig)});
    }
    // Score ties are common (indistinguishable candidates score the same
    // signature); break them by fault identity so the restart set does not
    // depend on std::sort's whims.
    std::sort(seeds.begin(), seeds.end(),
              [&](const Seed& a, const Seed& b) {
                if (a.score != b.score) return a.score > b.score;
                return ctx.candidate(a.index) < ctx.candidate(b.index);
              });
    if (seeds.size() > options.restarts) seeds.resize(options.restarts);

    for (Seed& seed : seeds) {
      if (expired()) break;
      State state{{seed.index}, std::move(seed.sig), seed.score};
      state = extend_greedy(std::move(state));
      const bool better =
          state.score > best.score ||
          (state.score == best.score && !best.members.empty() &&
           state.members.size() < best.members.size());
      if (better) best = std::move(state);
      // A found exact explanation cannot be beaten, only tied.
      if (!observed.empty() && exact_match(matcher.match(best.composite)))
        break;
    }
  }

  std::vector<std::size_t>& members = best.members;
  ErrorSignature& composite = best.composite;
  double& best_score = best.score;
  std::vector<char> in_multiplet(ctx.n_candidates(), 0);
  for (std::size_t m : members) in_multiplet[m] = 1;

  // Refinement: local search around the greedy solution.
  //  * drop — remove members whose removal does not reduce the composite
  //    score (spurious additions or members subsumed by later picks);
  //  * 1-swap — replace a member with a shortlisted alternative when the
  //    swap strictly improves the composite score.
  if (options.refine && !members.empty()) {
    const std::size_t swap_shortlist =
        std::max<std::size_t>(8, options.shortlist / 2);
    bool changed = true;
    std::size_t guard = 0;
    while (changed && guard++ < 16 && !expired()) {
      changed = false;

      // Drop pass.
      for (std::size_t m = 0; m < members.size() && members.size() > 1; ++m) {
        if (expired()) break;
        std::vector<Fault> without;
        for (std::size_t j = 0; j < members.size(); ++j)
          if (j != m) without.push_back(ctx.candidate(members[j]));
        ErrorSignature sig = ctx.multiplet_signature(without);
        const double s = score_of(matcher.match(sig), options.weights);
        if (s >= best_score) {
          in_multiplet[members[m]] = 0;
          members.erase(members.begin() + static_cast<std::ptrdiff_t>(m));
          composite = std::move(sig);
          best_score = s;
          changed = true;
          break;
        }
      }
      if (changed) continue;

      // Swap pass.
      for (std::size_t m = 0; m < members.size() && !changed; ++m) {
        if (expired()) break;
        std::vector<Fault> base;
        for (std::size_t j = 0; j < members.size(); ++j)
          if (j != m) base.push_back(ctx.candidate(members[j]));
        const ErrorSignature base_sig =
            base.empty() ? ErrorSignature(observed.n_patterns(),
                                          observed.n_outputs())
                         : ctx.multiplet_signature(base);
        for (const H& h : index.shortlist(index.residual(base_sig),
                                          in_multiplet, swap_shortlist)) {
          // Each trial is a full composite evaluation; without this poll a
          // late deadline overshoots by up to a whole shortlist sweep.
          if (expired()) break;
          base.push_back(ctx.candidate(h.index));
          ErrorSignature sig = ctx.multiplet_signature(base);
          base.pop_back();
          const double s = score_of(matcher.match(sig), options.weights);
          if (s > best_score) {
            in_multiplet[members[m]] = 0;
            in_multiplet[h.index] = 1;
            members[m] = h.index;
            composite = std::move(sig);
            best_score = s;
            changed = true;
            break;
          }
        }
      }
    }
  }

  // Per-member marginal gain for reporting: score(M) - score(M \ m).
  std::vector<double> member_gain(members.size(), 0.0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (expired()) break;
    if (members.size() == 1) {
      member_gain[m] = best_score - empty_score;
      break;
    }
    std::vector<Fault> without;
    for (std::size_t j = 0; j < members.size(); ++j)
      if (j != m) without.push_back(ctx.candidate(members[j]));
    const ErrorSignature sig = ctx.multiplet_signature(without);
    member_gain[m] =
        best_score - score_of(matcher.match(sig), options.weights);
  }

  for (std::size_t m = 0; m < members.size(); ++m) {
    ScoredCandidate sc;
    sc.fault = ctx.candidate(members[m]);
    sc.counts = matcher.match(ctx.solo_signature(members[m]));
    sc.score = member_gain[m];
    // indistinguishable_from sweeps every solo signature — far too heavy
    // for a request that already blew its deadline.
    if (options.report_alternates && !timed_out)
      sc.alternates = ctx.indistinguishable_from(members[m]);
    report.suspects.push_back(std::move(sc));
  }
  report.explains_all =
      !observed.empty() && exact_match(matcher.match(composite));
  report.timed_out = timed_out;
  report.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace mdd
