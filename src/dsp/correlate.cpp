#include "dsp/correlate.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/fft_plan.h"

namespace ivc::dsp {
namespace {

double mean_of(std::span<const double> x) {
  double m = 0.0;
  for (const double v : x) {
    m += v;
  }
  return m / static_cast<double>(x.size());
}

double sum_of_squares(std::span<const double> x) {
  double e = 0.0;
  for (const double v : x) {
    e += v * v;
  }
  return e;
}

// sum_i a[i+lag]·b[i] for every lag in [lo, hi] (lo <= 0 <= hi), and
// nothing else. b is cut into blocks; each block's spectrum is paired
// with the spectrum of the a-segment it can reach (the block widened by
// the lag span), the products are summed, and one inverse transform
// yields every lag. The transform size depends on the lag span alone,
// and block + span == n keeps every wanted lag free of circular wrap.
std::vector<double> correlate_lags(std::span<const double> a,
                                   std::span<const double> b,
                                   std::ptrdiff_t lo, std::ptrdiff_t hi) {
  const auto span = static_cast<std::size_t>(hi - lo);
  const std::size_t n = next_pow2(2 * span + 2);
  const std::size_t block = n - span;
  const auto plan = get_fft_plan(n);
  const std::size_t bins = plan->num_real_bins();
  std::vector<double> seg(n);
  std::vector<double> blk(n);
  std::vector<cplx> fseg(bins);
  std::vector<cplx> fblk(bins);
  std::vector<cplx> acc(bins, cplx{0.0, 0.0});
  const auto len_a = static_cast<std::ptrdiff_t>(a.size());
  for (std::size_t start = 0; start < b.size(); start += block) {
    const std::size_t take = std::min(block, b.size() - start);
    std::fill(blk.begin(), blk.end(), 0.0);
    std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(start), take,
                blk.begin());
    // seg[t] = a[first + t], zero where that index falls outside a.
    const std::ptrdiff_t first = static_cast<std::ptrdiff_t>(start) + lo;
    const auto width = static_cast<std::ptrdiff_t>(n);
    const std::ptrdiff_t from = std::clamp<std::ptrdiff_t>(-first, 0, width);
    const std::ptrdiff_t to =
        std::clamp<std::ptrdiff_t>(len_a - first, from, width);
    std::fill(seg.begin(), seg.end(), 0.0);
    if (from < to) {
      std::copy(a.begin() + (first + from), a.begin() + (first + to),
                seg.begin() + from);
    }
    plan->rfft(seg, fseg);
    plan->rfft(blk, fblk);
    for (std::size_t k = 0; k < bins; ++k) {
      acc[k] += fseg[k] * std::conj(fblk[k]);
    }
  }
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(acc, seg, work);
  seg.resize(span + 1);
  return seg;
}

}  // namespace

double pearson_correlation(std::span<const double> a,
                           std::span<const double> b) {
  expects(a.size() == b.size(), "pearson_correlation: size mismatch");
  expects(a.size() >= 2, "pearson_correlation: need at least 2 samples");
  const double ma = mean_of(a);
  const double mb = mean_of(b);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 1e-300 || sbb <= 1e-300) {
    return 0.0;
  }
  return sab / std::sqrt(saa * sbb);
}

std::vector<double> normalized_cross_correlation(std::span<const double> a,
                                                 std::span<const double> b) {
  expects(!a.empty() && !b.empty(),
          "normalized_cross_correlation: inputs must be non-empty");
  // corr(a, b)[lag] = sum_i a[i+lag]·b[i] == conv(a, reverse(b)).
  // Both inputs are real, so the planned packed transform carries the
  // whole product in the n/2 + 1 nonnegative-frequency bins (a product
  // of conjugate-symmetric spectra stays conjugate-symmetric).
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  const auto plan = get_fft_plan(n);
  const std::size_t bins = plan->num_real_bins();
  std::vector<double> pa(n, 0.0);
  std::vector<double> pb(n, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    pa[i] = a[i];
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    pb[i] = b[b.size() - 1 - i];
  }
  std::vector<cplx> fa(bins);
  std::vector<cplx> fb(bins);
  plan->rfft(pa, fa);
  plan->rfft(pb, fb);
  for (std::size_t i = 0; i < bins; ++i) {
    fa[i] *= fb[i];
  }
  std::vector<cplx> work(plan->workspace_size());
  plan->irfft(fa, pa, work);

  const double norm = std::sqrt(sum_of_squares(a) * sum_of_squares(b));
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    out[i] = norm > 1e-300 ? pa[i] / norm : 0.0;
  }
  return out;
}

alignment best_alignment(std::span<const double> a, std::span<const double> b) {
  const std::vector<double> xc = normalized_cross_correlation(a, b);
  std::size_t best = 0;
  for (std::size_t i = 1; i < xc.size(); ++i) {
    if (std::abs(xc[i]) > std::abs(xc[best])) {
      best = i;
    }
  }
  return alignment{
      static_cast<std::ptrdiff_t>(best) -
          static_cast<std::ptrdiff_t>(b.size() - 1),
      xc[best]};
}

double aligned_correlation(std::span<const double> a, std::span<const double> b,
                           std::size_t max_lag) {
  expects(a.size() >= 2 && b.size() >= 2,
          "aligned_correlation: inputs too short");
  const auto lo = -static_cast<std::ptrdiff_t>(std::min(max_lag, b.size() - 1));
  const auto hi = static_cast<std::ptrdiff_t>(std::min(max_lag, a.size() - 1));
  // The first maximum of |xc| in ascending lag order wins. Silent inputs
  // have no maximum, and the lowest lag in range stands.
  std::ptrdiff_t best_lag = lo;
  if (std::sqrt(sum_of_squares(a) * sum_of_squares(b)) > 1e-300) {
    const std::vector<double> xc = correlate_lags(a, b, lo, hi);
    double best_abs = -1.0;
    for (std::size_t d = 0; d < xc.size(); ++d) {
      if (std::abs(xc[d]) > best_abs) {
        best_abs = std::abs(xc[d]);
        best_lag = lo + static_cast<std::ptrdiff_t>(d);
      }
    }
  }
  // Re-measure as a Pearson coefficient on the overlapping region.
  std::span<const double> sa = a;
  std::span<const double> sb = b;
  if (best_lag >= 0) {
    sa = sa.subspan(static_cast<std::size_t>(best_lag));
  } else {
    sb = sb.subspan(static_cast<std::size_t>(-best_lag));
  }
  const std::size_t overlap = std::min(sa.size(), sb.size());
  if (overlap < 2) {
    return 0.0;
  }
  return pearson_correlation(sa.subspan(0, overlap), sb.subspan(0, overlap));
}

}  // namespace ivc::dsp
