#include "core/edge_weight.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace hlp {

void EdgeWeightParams::validate() const {
  HLP_REQUIRE(alpha >= 0.0 && alpha <= 1.0,
              "alpha must be in [0,1], got " << alpha);
}

EdgeWeightBreakdown edge_weight(OpKind kind, int n_mux_a, int n_mux_b,
                                SaCache& cache,
                                const EdgeWeightParams& params) {
  params.validate();
  EdgeWeightBreakdown out;
  out.mux_a = n_mux_a;
  out.mux_b = n_mux_b;
  out.mux_diff = std::abs(n_mux_a - n_mux_b);
  out.sa = cache.switching_activity(kind, n_mux_a, n_mux_b);
  HLP_CHECK(out.sa > 0.0, "non-positive SA estimate");
  out.weight = params.alpha * (1.0 / out.sa) +
               (1.0 - params.alpha) *
                   (1.0 / ((out.mux_diff + 1) * params.beta(kind)));
  return out;
}

}  // namespace hlp
