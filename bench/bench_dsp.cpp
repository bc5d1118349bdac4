// E16 — DSP fast path: cached plans and real-input FFT, then the kernels.
//
// The seed DSP layer rebuilt its FFT plan (bit-reversal table + twiddles)
// and window taper on every amplitude_spectrum() call and ran real signals
// through a full complex transform. The cached path shares plans and
// windows process-wide, packs N reals into an N/2 complex FFT, and reuses
// a per-thread scratch arena so steady-state extraction never allocates.
// The kernels under it (radix-2 butterflies on per-stage twiddles, the
// cached DCT basis, the modulo-free DWT) return the textbook loops' bits.
//
// The google-benchmark suite covers interactive runs; main() additionally
// takes a fixed-repetition median of each path and writes the numbers to
// BENCH_DSP.json beside the binary (copy it over the committed one to
// re-record). Acceptance: cached single-spectrum latency >= 2x better than
// the rebuild path. `--quick` re-measures the vibration feature frame and
// the WNN feature vector and exits 1 when either runs slower than 2x the
// committed BENCH_DSP.json in the working directory; it never writes a
// file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_snapshot.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/window.hpp"
#include "mpros/nn/classifier.hpp"
#include "mpros/rules/features.hpp"

namespace {

using namespace mpros;

constexpr double kRate = 40960.0;
constexpr std::size_t kWindow = 8192;
// The DC's motor-current record: long and slow for sub-Hz resolution.
constexpr double kCurrentRate = 4096.0;
constexpr std::size_t kCurrentWindow = 32768;
constexpr std::size_t kComplexFft = 4096;

std::vector<double> test_waveform() {
  std::vector<double> x(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    const double t = static_cast<double>(i) / kRate;
    x[i] = std::sin(2.0 * M_PI * 29.6 * t) +
           0.3 * std::sin(2.0 * M_PI * 1273.0 * t) +
           0.1 * std::sin(2.0 * M_PI * 5421.0 * t);
  }
  return x;
}

std::vector<double> current_waveform() {
  std::vector<double> x(kCurrentWindow);
  for (std::size_t i = 0; i < kCurrentWindow; ++i) {
    const double t = static_cast<double>(i) / kCurrentRate;
    x[i] = 140.0 * std::sin(2.0 * M_PI * 60.0 * t) +
           0.8 * std::sin(2.0 * M_PI * 58.7 * t) +
           0.5 * std::sin(2.0 * M_PI * 120.0 * t);
  }
  return x;
}

std::vector<dsp::Complex> complex_input() {
  std::vector<dsp::Complex> x(kComplexFft);
  for (std::size_t i = 0; i < kComplexFft; ++i) {
    x[i] = dsp::Complex(std::sin(0.1 * static_cast<double>(i)),
                        std::cos(0.37 * static_cast<double>(i)));
  }
  return x;
}

// The seed implementation, verbatim in shape: window rebuilt per call,
// plan rebuilt per call, full complex transform of a real signal.
void legacy_amplitude_spectrum(std::span<const double> x,
                               double sample_rate_hz, dsp::Spectrum& out) {
  const std::size_t n = kWindow;
  const std::vector<double> window =
      dsp::make_window(dsp::WindowKind::Hann, x.size());
  std::vector<double> windowed(x.begin(), x.end());
  dsp::apply_window(windowed, window);

  std::vector<dsp::Complex> buf(n, dsp::Complex{});
  std::transform(windowed.begin(), windowed.end(), buf.begin(),
                 [](double v) { return dsp::Complex(v, 0.0); });
  dsp::FftPlan(n).forward(buf);

  out.sample_rate_hz = sample_rate_hz;
  out.bin_hz = sample_rate_hz / static_cast<double>(n);
  out.amplitude.resize(n / 2 + 1);
  const double gain = dsp::coherent_gain(window);
  for (std::size_t i = 0; i < out.amplitude.size(); ++i) {
    double a = std::abs(buf[i]) / gain;
    if (i != 0 && i != n / 2) a *= 2.0;
    out.amplitude[i] = a;
  }
}

void BM_SingleSpectrum_Rebuild(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::Spectrum spec;
  for (auto _ : state) {
    legacy_amplitude_spectrum(x, kRate, spec);
    benchmark::DoNotOptimize(spec.amplitude.data());
  }
  state.SetLabel("per-call plan+window rebuild, complex FFT");
}
BENCHMARK(BM_SingleSpectrum_Rebuild)->Unit(benchmark::kMicrosecond);

void BM_SingleSpectrum_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::SpectrumConfig cfg;
  dsp::Spectrum spec;
  dsp::amplitude_spectrum(x, kRate, cfg, spec);  // warm caches + arena
  for (auto _ : state) {
    dsp::amplitude_spectrum(x, kRate, cfg, spec);
    benchmark::DoNotOptimize(spec.amplitude.data());
  }
  state.SetLabel("cached plan+window, real-input FFT, zero alloc");
}
BENCHMARK(BM_SingleSpectrum_Cached)->Unit(benchmark::kMicrosecond);

void BM_WelchPsd_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  dsp::Spectrum psd;
  dsp::welch_psd(x, kRate, 1024, dsp::WindowKind::Hann, psd);
  for (auto _ : state) {
    dsp::welch_psd(x, kRate, 1024, dsp::WindowKind::Hann, psd);
    benchmark::DoNotOptimize(psd.amplitude.data());
  }
  state.SetLabel("15 overlapped 1024-pt segments");
}
BENCHMARK(BM_WelchPsd_Cached)->Unit(benchmark::kMicrosecond);

void BM_FeatureFrame_Cached(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  rules::FeatureFrame frame;
  extractor.extract_vibration(x, kRate, frame);
  for (auto _ : state) {
    extractor.extract_vibration(x, kRate, frame);
    benchmark::DoNotOptimize(&frame);
  }
  state.SetLabel("full vibration feature frame (spectrum+envelope)");
}
BENCHMARK(BM_FeatureFrame_Cached)->Unit(benchmark::kMicrosecond);

void BM_FftComplex4096(benchmark::State& state) {
  const dsp::FftPlan plan(kComplexFft);
  std::vector<dsp::Complex> buf = complex_input();
  for (auto _ : state) {
    plan.forward(buf);
    plan.inverse(buf);  // keeps the values bounded across iterations
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("4096-pt complex forward + inverse");
}
BENCHMARK(BM_FftComplex4096)->Unit(benchmark::kMicrosecond);

void BM_CurrentSpectrum32768(benchmark::State& state) {
  const std::vector<double> x = current_waveform();
  dsp::SpectrumConfig cfg;
  cfg.fft_size = kCurrentWindow;
  dsp::Spectrum spec;
  dsp::amplitude_spectrum(x, kCurrentRate, cfg, spec);
  for (auto _ : state) {
    dsp::amplitude_spectrum(x, kCurrentRate, cfg, spec);
    benchmark::DoNotOptimize(spec.amplitude.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("motor-current spectrum, 32768-pt real FFT");
}
BENCHMARK(BM_CurrentSpectrum32768)->Unit(benchmark::kMicrosecond);

void BM_WnnFeatures(benchmark::State& state) {
  const std::vector<double> x = test_waveform();
  const nn::WnnClassifier wnn;
  const nn::WnnContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wnn.features(x, kRate, ctx).data());
  }
  state.SetLabel("WNN features: cepstrum, spectrum, DCT, Db4 wavelet map");
}
BENCHMARK(BM_WnnFeatures)->Unit(benchmark::kMicrosecond);

// Median-of-reps wall time in nanoseconds for the JSON snapshot. `reset`
// runs untimed before each rep.
template <typename Fn, typename Reset>
double median_ns(std::size_t reps, Fn&& fn, Reset&& reset) {
  std::vector<double> samples(reps);
  for (double& s : samples) {
    reset();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    s = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2,
                   samples.end());
  return samples[reps / 2];
}

template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
  return median_ns(reps, fn, [] {});
}

double feature_frame_ns(const std::vector<double>& x, std::size_t reps) {
  const rules::FeatureExtractor extractor(domain::navy_chiller_signature());
  rules::FeatureFrame frame;
  extractor.extract_vibration(x, kRate, frame);  // warm caches + arena
  return median_ns(reps, [&] { extractor.extract_vibration(x, kRate, frame); });
}

double wnn_features_ns(const std::vector<double>& x, std::size_t reps) {
  const nn::WnnClassifier wnn;
  const nn::WnnContext ctx;
  std::vector<double> f = wnn.features(x, kRate, ctx);  // warm
  return median_ns(reps, [&] { f = wnn.features(x, kRate, ctx); });
}

void write_json_snapshot() {
  const std::vector<double> x = test_waveform();
  const std::vector<double> current = current_waveform();
  dsp::Spectrum spec;
  dsp::SpectrumConfig cfg;
  dsp::SpectrumConfig current_cfg;
  current_cfg.fft_size = kCurrentWindow;

  // Warm the caches so the cached numbers are steady state.
  dsp::amplitude_spectrum(x, kRate, cfg, spec);
  dsp::amplitude_spectrum(current, kCurrentRate, current_cfg, spec);

  const double rebuild =
      median_ns(60, [&] { legacy_amplitude_spectrum(x, kRate, spec); });
  const double cached =
      median_ns(400, [&] { dsp::amplitude_spectrum(x, kRate, cfg, spec); });
  const double current_spectrum = median_ns(100, [&] {
    dsp::amplitude_spectrum(current, kCurrentRate, current_cfg, spec);
  });
  const dsp::FftPlan plan(kComplexFft);
  const std::vector<dsp::Complex> input = complex_input();
  std::vector<dsp::Complex> buf;
  const double fft_complex = median_ns(
      400, [&] { plan.forward(buf); }, [&] { buf = input; });
  const double feature_frame = feature_frame_ns(x, 100);
  const double wnn_features = wnn_features_ns(x, 100);

  std::string path;
  std::FILE* f = mpros::bench::open_snapshot("BENCH_DSP.json", path);
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E16\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"fft_size\": %zu,\n"
               "  \"sample_rate_hz\": %.0f,\n"
               "  \"single_spectrum_rebuild_ns\": %.0f,\n"
               "  \"single_spectrum_cached_ns\": %.0f,\n"
               "  \"single_spectrum_speedup\": %.2f,\n"
               "  \"fft_complex_4096_ns\": %.0f,\n"
               "  \"current_spectrum_32768_ns\": %.0f,\n"
               "  \"feature_frame_cached_ns\": %.0f,\n"
               "  \"wnn_features_ns\": %.0f\n"
               "}\n",
               std::thread::hardware_concurrency(), kWindow, kRate, rebuild,
               cached, rebuild / cached, fft_complex, current_spectrum,
               feature_frame, wnn_features);
  std::fclose(f);
  std::printf("single spectrum: rebuild %.1f us -> cached %.1f us (%.2fx)\n",
              rebuild / 1e3, cached / 1e3, rebuild / cached);
  std::printf("4096-pt complex FFT: %.1f us; 32768-pt current spectrum: "
              "%.1f us\n", fft_complex / 1e3, current_spectrum / 1e3);
  std::printf("feature frame  : %.1f us; WNN features: %.1f us\n"
              "%s written\n",
              feature_frame / 1e3, wnn_features / 1e3, path.c_str());
}

/// --quick: CI regression gate on the two per-window DSP costs of a
/// vibration test. Exits 1 when either median exceeds 2x its baseline.
int run_quick_gate() {
  const double frame_base = mpros::bench::committed_baseline(
      "BENCH_DSP.json", "feature_frame_cached_ns");
  const double wnn_base =
      mpros::bench::committed_baseline("BENCH_DSP.json", "wnn_features_ns");
  if (frame_base <= 0.0 || wnn_base <= 0.0) {
    std::printf("bench_dsp --quick: no BENCH_DSP.json baseline here; "
                "nothing to gate against\n");
    return 0;
  }
  const std::vector<double> x = test_waveform();
  const double frame = feature_frame_ns(x, 60);
  const double wnn = wnn_features_ns(x, 60);
  std::printf("bench_dsp --quick: feature frame %.1f us (baseline %.1f us), "
              "WNN features %.1f us (baseline %.1f us), ceiling 2x\n",
              frame / 1e3, frame_base / 1e3, wnn / 1e3, wnn_base / 1e3);
  if (frame > 2.0 * frame_base || wnn > 2.0 * wnn_base) {
    std::fprintf(stderr,
                 "bench_dsp --quick: REGRESSION — more than 2x the committed "
                 "baseline\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == std::string_view("--quick")) {
      return run_quick_gate();
    }
  }
  std::printf(
      "\nE16 DSP fast path (ISSUE 2; acceptance: >=2x single spectrum)\n"
      "  compare: BM_SingleSpectrum_Rebuild vs BM_SingleSpectrum_Cached\n"
      "  (rebuild = seed behaviour: plan + window built per call, full\n"
      "  complex FFT; cached = shared plan/window caches, real-input\n"
      "  transform, per-thread scratch arena)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  write_json_snapshot();
  return 0;
}
