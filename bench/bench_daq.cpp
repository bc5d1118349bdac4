// E8 — The Fig 5 acquisition chain.
//
// Paper claims (§8): 2 MUX cards x 16 channels = 32 channels feeding a
// 4-channel digitizer; "Highest sampling rate exceeds 40,000 Hz";
// per-channel RMS detectors give "real-time and constant alarming for all
// sensors". The harness measures full-scan duty cycle, achieved sample
// rate, and alarm latency under a step fault.
//
// The plant side of a vibration test is timed too: one 32768-sample motor
// current window at 4096 Hz and one 8192-sample accelerometer window at
// 40960 Hz, healthy and bearing-faulted. main() writes their medians to
// BENCH_DAQ.json beside the binary (copy it over the committed one to
// re-record). `--quick` re-measures them and exits 1 when any runs slower
// than 2x the committed BENCH_DAQ.json in the working directory; it never
// writes a file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_snapshot.hpp"
#include "mpros/common/units.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/plant/daq.hpp"

namespace {

using namespace mpros;
using namespace mpros::plant;

SignalSource chiller_source(ChillerSimulator& chiller) {
  // 32 channels: cycle accelerometer points; every channel gets a live
  // waveform from the plant.
  return [&chiller](std::size_t channel, double t0, double rate,
                    std::span<double> out) {
    const auto point = static_cast<MachinePoint>(channel % 3);
    chiller.acquire_vibration_at(point, t0, rate, out);
  };
}

void print_e8_summary() {
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(chiller_source(chiller));

  const auto scan = daq.scan_all(4096, 40960.0, SimTime(0));
  const double achieved =
      static_cast<double>(scan.total_samples) / scan.duration.seconds();

  // Alarm latency: seed a severe imbalance and watch channel 0's detector.
  ChillerSimulator faulted;
  faulted.faults().schedule({domain::FailureMode::MotorImbalance, SimTime(0),
                             SimTime(0), 1.0, GrowthProfile::Step});
  faulted.advance(SimTime::from_seconds(1.0));
  DaqChain alarm_daq(chiller_source(faulted));
  alarm_daq.set_alarm_threshold(0, 0.15);  // healthy RMS is ~0.07 g
  const auto alarms =
      alarm_daq.poll_alarms(SimTime(0), SimTime::from_seconds(2.0));

  std::printf(
      "\nE8 Data Concentrator acquisition chain (paper Fig 5 / §8)\n"
      "  claim    : 32 channels via 2 MUX cards, >40 kHz sampling,\n"
      "             real-time RMS alarming on all channels\n"
      "  measured : %zu channels; full scan of 4096 samples/ch in %s\n"
      "             (%.0f samples/s aggregate through the 4-ch digitizer)\n",
      daq.channel_count(), to_string(scan.duration).c_str(), achieved);
  if (!alarms.empty()) {
    std::printf("             RMS alarm on ch%zu after %s (rms %.2f g)\n\n",
                alarms[0].channel, to_string(alarms[0].at).c_str(),
                alarms[0].rms);
  } else {
    std::printf("             RMS alarm did not fire (unexpected)\n\n");
  }
}

void BM_FullScan(benchmark::State& state) {
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(chiller_source(chiller));
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(daq.scan_all(samples, 40960.0, SimTime(0)));
  }
  state.SetItemsProcessed(state.iterations() * samples * 32);
  state.SetLabel("samples digitized");
}
BENCHMARK(BM_FullScan)->Arg(1024)->Arg(4096);

void BM_AlarmScan(benchmark::State& state) {
  ChillerSimulator chiller;
  chiller.advance(SimTime::from_seconds(1.0));
  DaqChain daq(chiller_source(chiller));
  for (std::size_t ch = 0; ch < daq.channel_count(); ++ch) {
    daq.set_alarm_threshold(ch, 10.0);  // never fires: measure scan cost
  }
  SimTime t(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daq.poll_alarms(t, SimTime::from_millis(100)));
    t += SimTime::from_millis(100);
  }
  // 32 channels x 4096 Hz x 0.1 s per iteration.
  state.SetItemsProcessed(state.iterations() * 32 * 409);
  state.SetLabel("detector samples");
}
BENCHMARK(BM_AlarmScan);

constexpr double kVibRate = 40960.0;
constexpr std::size_t kVibWindow = 8192;
constexpr double kCurrentRate = 4096.0;
constexpr std::size_t kCurrentWindow = 32768;

/// Severities of a plant with both bearings worn (ring-downs on every
/// point), or of a healthy one.
Severities window_severities(bool faulted) {
  Severities s{};
  if (faulted) {
    s[static_cast<std::size_t>(domain::FailureMode::MotorBearingWear)] = 0.7;
    s[static_cast<std::size_t>(domain::FailureMode::CompressorBearingWear)] =
        0.7;
  }
  return s;
}

/// One plant window of the named kind; `t0` advances so every call renders
/// a fresh stretch of time, as the DC's acquisitions do.
struct PlantWindow {
  bool current;
  bool faulted;
  VibrationSynthesizer synth{domain::navy_chiller_signature(), 0xDA0};
  std::vector<double> out =
      std::vector<double>(current ? kCurrentWindow : kVibWindow);
  double t0 = 1200.0;

  void render() {
    const Severities s = window_severities(faulted);
    if (current) {
      synth.motor_current(s, 0.8, t0, kCurrentRate, out);
      t0 += static_cast<double>(kCurrentWindow) / kCurrentRate;
    } else {
      synth.acceleration(MachinePoint::Motor, s, 0.8, t0, kVibRate, out);
      t0 += static_cast<double>(kVibWindow) / kVibRate;
    }
  }
};

void BM_PlantWindow(benchmark::State& state) {
  PlantWindow w{state.range(0) == 1, state.range(1) == 1};
  for (auto _ : state) {
    w.render();
    benchmark::DoNotOptimize(w.out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.out.size()));
  state.SetLabel(std::string(w.current ? "current 32768 @ 4096 Hz"
                                       : "vibration 8192 @ 40960 Hz") +
                 (w.faulted ? ", bearings faulted" : ", healthy"));
}
BENCHMARK(BM_PlantWindow)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

/// Median wall time of `reps` renders, in nanoseconds (one warm-up first).
double plant_window_ns(bool current, bool faulted, std::size_t reps) {
  PlantWindow w{current, faulted};
  w.render();
  std::vector<double> samples(reps);
  for (double& s : samples) {
    const auto t0 = std::chrono::steady_clock::now();
    w.render();
    const auto t1 = std::chrono::steady_clock::now();
    s = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2,
                   samples.end());
  return samples[reps / 2];
}

struct PlantTimings {
  double current_healthy, current_faulted, vib_healthy, vib_faulted;
};

PlantTimings measure_plant(std::size_t reps) {
  return {plant_window_ns(true, false, reps), plant_window_ns(true, true, reps),
          plant_window_ns(false, false, reps),
          plant_window_ns(false, true, reps)};
}

void write_json_snapshot() {
  const PlantTimings t = measure_plant(101);
  std::string path;
  std::FILE* f = mpros::bench::open_snapshot("BENCH_DAQ.json", path);
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E8\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"current_window\": %zu,\n"
               "  \"current_rate_hz\": %.0f,\n"
               "  \"vibration_window\": %zu,\n"
               "  \"vibration_rate_hz\": %.0f,\n"
               "  \"current_healthy_ns\": %.0f,\n"
               "  \"current_faulted_ns\": %.0f,\n"
               "  \"vibration_healthy_ns\": %.0f,\n"
               "  \"vibration_faulted_ns\": %.0f\n"
               "}\n",
               std::thread::hardware_concurrency(), kCurrentWindow,
               kCurrentRate, kVibWindow, kVibRate, t.current_healthy,
               t.current_faulted, t.vib_healthy, t.vib_faulted);
  std::fclose(f);
  std::printf("plant windows: current %.1f / %.1f us, vibration %.1f / %.1f "
              "us (healthy / bearings faulted)\n%s written\n",
              t.current_healthy / 1e3, t.current_faulted / 1e3,
              t.vib_healthy / 1e3, t.vib_faulted / 1e3, path.c_str());
}

/// --quick: CI regression gate on the plant's per-window cost. Exits 1 when
/// any of the four window medians exceeds 2x its baseline.
int run_quick_gate() {
  const char* keys[] = {"current_healthy_ns", "current_faulted_ns",
                        "vibration_healthy_ns", "vibration_faulted_ns"};
  double base[4];
  for (int i = 0; i < 4; ++i) {
    base[i] = mpros::bench::committed_baseline("BENCH_DAQ.json", keys[i]);
    if (base[i] <= 0.0) {
      std::printf("bench_daq --quick: no BENCH_DAQ.json baseline here; "
                  "nothing to gate against\n");
      return 0;
    }
  }
  const PlantTimings t = measure_plant(31);
  const double now[] = {t.current_healthy, t.current_faulted, t.vib_healthy,
                        t.vib_faulted};
  int status = 0;
  for (int i = 0; i < 4; ++i) {
    const bool over = now[i] > 2.0 * base[i];
    std::printf("bench_daq --quick: %-22s %8.1f us (baseline %8.1f us)%s\n",
                keys[i], now[i] / 1e3, base[i] / 1e3,
                over ? "  REGRESSION" : "");
    if (over) status = 1;
  }
  if (status != 0) {
    std::fprintf(stderr,
                 "bench_daq --quick: more than 2x the committed baseline\n");
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == std::string_view("--quick")) {
      return run_quick_gate();
    }
  }
  print_e8_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  write_json_snapshot();
  return 0;
}
