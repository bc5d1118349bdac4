// Seeded feature regression: the vibration feature frame, the current
// signature features and the WNN feature vector, computed from seeded
// plant windows, must keep their recorded values within 1e-12 relative.
// The DSP kernels are pinned bit-for-bit elsewhere, so a move here means
// the plant windows or a feature definition changed: re-record the table
// and say how far it moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "mpros/nn/classifier.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/rules/features.hpp"

namespace mpros {
namespace {

// Seeded plant windows with four faults present, and every feature the DC
// and the WNN draw from them, flattened to (name, value) rows.
std::vector<std::pair<std::string, double>> seeded_features() {
  plant::ChillerConfig cfg;
  cfg.seed = 0x5EED15;
  cfg.load_fraction = 0.7;
  plant::ChillerSimulator chiller(cfg);
  for (const auto& [mode, severity] :
       {std::pair{domain::FailureMode::MotorImbalance, 0.6},
        std::pair{domain::FailureMode::MotorBearingWear, 0.5},
        std::pair{domain::FailureMode::RotorBarDefect, 0.4},
        std::pair{domain::FailureMode::GearMeshWear, 0.3}}) {
    plant::FaultEvent event;
    event.mode = mode;
    event.onset = SimTime::from_seconds(0);
    event.max_severity = severity;
    event.profile = plant::GrowthProfile::Step;
    chiller.faults().schedule(event);
  }
  chiller.advance(SimTime::from_seconds(600));

  constexpr double kVibRate = 40960.0;
  constexpr double kCurrentRate = 4096.0;
  std::vector<double> current(32768);
  chiller.acquire_current(kCurrentRate, current);

  const rules::FeatureExtractor extractor(chiller.signature());
  const nn::WnnClassifier wnn;
  nn::WnnContext ctx;
  ctx.load_fraction = cfg.load_fraction;

  std::vector<std::pair<std::string, double>> rows;
  const auto add_frame = [&rows](const std::string& prefix,
                                 const rules::FeatureFrame& frame) {
    std::vector<std::pair<std::string, double>> sorted(frame.all().begin(),
                                                       frame.all().end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [key, value] : sorted) rows.emplace_back(prefix + key, value);
  };

  std::vector<double> vib(8192);
  for (const plant::MachinePoint point :
       {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
        plant::MachinePoint::Compressor}) {
    chiller.acquire_vibration(point, kVibRate, vib);
    const std::string name =
        std::string("p") + std::to_string(static_cast<int>(point)) + ".";
    rules::FeatureFrame frame;
    extractor.extract_vibration(vib, kVibRate, frame);
    add_frame(name, frame);
    const std::vector<double> f = wnn.features(vib, kVibRate, ctx);
    for (std::size_t i = 0; i < f.size(); ++i) {
      rows.emplace_back(name + "wnn." + std::to_string(i), f[i]);
    }
  }
  rules::FeatureFrame frame;
  extractor.extract_current(current, kCurrentRate, cfg.load_fraction, frame);
  add_frame("current.", frame);
  return rows;
}

struct Recorded {
  const char* name;
  double value;
};

// Recorded from the block-rendered plant (anchored phasor tones, damped
// ring-downs, counter-based Box-Muller noise).
constexpr Recorded kRecorded[] = {
    {"p0.bearing.bpfi", 0.047087267417613571},
    {"p0.bearing.bpfo", 0.068920643030105908},
    {"p0.bearing.bsf", 0.020848334018424383},
    {"p0.bearing.ftf", 0.0047407044110627941},
    {"p0.broadband.high_freq", 0.035361385227468706},
    {"p0.compressor.vane_pass", 0.013293741848164207},
    {"p0.gear.mesh", 0.016075916490922857},
    {"p0.gear.mesh_sidebands", 0.0187966314404408},
    {"p0.order.0.5x", 0.0015247677490310631},
    {"p0.order.1x", 0.30556959624854896},
    {"p0.order.2x", 0.019439629380998504},
    {"p0.order.3x", 0.0021705204041268175},
    {"p0.order.4x", 0.00051622079126261095},
    {"p0.order.harmonic_series", 0.30621303696776386},
    {"p0.order.subharmonics", 0.015761562035400623},
    {"p0.overall.crest", 3.421654639469585},
    {"p0.overall.kurtosis", 2.0855519927805295},
    {"p0.overall.rms", 0.23985963270252808},
    {"p0.wnn.0", 0.82071682505807586},
    {"p0.wnn.1", 0.23985267388014719},
    {"p0.wnn.2", 3.421654639469585},
    {"p0.wnn.3", 2.0855519927805295},
    {"p0.wnn.4", 31.34765625},
    {"p0.wnn.5", 0.028164802254229938},
    {"p0.wnn.6", -203.35220264288844},
    {"p0.wnn.7", 14.538034661811409},
    {"p0.wnn.8", 5.9392712910987955},
    {"p0.wnn.9", -2.2008706562949185},
    {"p0.wnn.10", -6.4648259460067043},
    {"p0.wnn.11", -7.0297670439327353},
    {"p0.wnn.12", -4.8076772689300569},
    {"p0.wnn.13", -0.89119597385251093},
    {"p0.wnn.14", 0.0042577005526010323},
    {"p0.wnn.15", 0.034325355991727334},
    {"p0.wnn.16", 0.11303819513637542},
    {"p0.wnn.17", 0.0074320318519266373},
    {"p0.wnn.18", 0.0059472720133181625},
    {"p0.wnn.19", 0.00098777306420585716},
    {"p0.wnn.20", 0.83401167138984555},
    {"p0.wnn.21", 0.88081656133598019},
    {"p0.wnn.22", 55},
    {"p0.wnn.23", 29.600000000000001},
    {"p0.wnn.24", 0.69999999999999996},
    {"p1.bearing.bpfi", 0.013825046564779068},
    {"p1.bearing.bpfo", 0.020599812982497741},
    {"p1.bearing.bsf", 0.0065756851195950608},
    {"p1.bearing.ftf", 0.0013756777116766905},
    {"p1.broadband.high_freq", 0.02237291245659467},
    {"p1.compressor.vane_pass", 0.013856661804456528},
    {"p1.gear.mesh", 0.056804304356355015},
    {"p1.gear.mesh_sidebands", 0.053085613085039923},
    {"p1.order.0.5x", 0.0011281382136700772},
    {"p1.order.1x", 0.12856546502952176},
    {"p1.order.2x", 0.019348662260365024},
    {"p1.order.3x", 0.001712753052349423},
    {"p1.order.4x", 0.00089165385373855127},
    {"p1.order.harmonic_series", 0.1300332896631694},
    {"p1.order.subharmonics", 0.015323959488817996},
    {"p1.overall.crest", 3.2828585390542369},
    {"p1.overall.kurtosis", 2.6605516342542068},
    {"p1.overall.rms", 0.12040278611254653},
    {"p1.wnn.0", 0.39526531451549424},
    {"p1.wnn.1", 0.12039869233332069},
    {"p1.wnn.2", 3.2828585390542369},
    {"p1.wnn.3", 2.6605516342542068},
    {"p1.wnn.4", 52.2705078125},
    {"p1.wnn.5", 0.029075243598040798},
    {"p1.wnn.6", -210.73787120244796},
    {"p1.wnn.7", 7.4030567775274569},
    {"p1.wnn.8", 4.0815631475991632},
    {"p1.wnn.9", -0.063386023031130723},
    {"p1.wnn.10", -3.5299998031392681},
    {"p1.wnn.11", -3.617218679747269},
    {"p1.wnn.12", -3.0473781401068054},
    {"p1.wnn.13", -0.55998506086949973},
    {"p1.wnn.14", 0.014009692575178727},
    {"p1.wnn.15", 0.023246554673408651},
    {"p1.wnn.16", 0.059218667215347534},
    {"p1.wnn.17", 0.14377483723410256},
    {"p1.wnn.18", 0.1574766665096213},
    {"p1.wnn.19", 0.0015469089351632253},
    {"p1.wnn.20", 0.60072667285717796},
    {"p1.wnn.21", 1.7322656022118328},
    {"p1.wnn.22", 55},
    {"p1.wnn.23", 29.600000000000001},
    {"p1.wnn.24", 0.69999999999999996},
    {"p2.bearing.bpfi", 0.0019409059632131025},
    {"p2.bearing.bpfo", 0.0040430528760043438},
    {"p2.bearing.bsf", 0.0012156638176108534},
    {"p2.bearing.ftf", 0.00087487590727965386},
    {"p2.broadband.high_freq", 0.020422935879312053},
    {"p2.compressor.vane_pass", 0.013108871257488353},
    {"p2.gear.mesh", 0.014248291304947928},
    {"p2.gear.mesh_sidebands", 0.018047192751636708},
    {"p2.order.0.5x", 0.00055925557796691579},
    {"p2.order.1x", 0.069213065224429687},
    {"p2.order.2x", 0.019377936814840003},
    {"p2.order.3x", 0.00068587550409652815},
    {"p2.order.4x", 0.00032967481259548478},
    {"p2.order.harmonic_series", 0.071883704063658155},
    {"p2.order.subharmonics", 0.015081608848037274},
    {"p2.overall.crest", 3.2282312841439076},
    {"p2.overall.kurtosis", 2.5411923446851827},
    {"p2.overall.rms", 0.061063818713352772},
    {"p2.wnn.0", 0.1971281298997376},
    {"p2.wnn.1", 0.061062686487623231},
    {"p2.wnn.2", 3.2282312841439076},
    {"p2.wnn.3", 2.5411923446851827},
    {"p2.wnn.4", 2.2705078125},
    {"p2.wnn.5", 0.030450012472136426},
    {"p2.wnn.6", -215.1213230735143},
    {"p2.wnn.7", 2.1664212025772054},
    {"p2.wnn.8", 1.746737674965956},
    {"p2.wnn.9", -0.0064259912897788613},
    {"p2.wnn.10", -0.73720561272189022},
    {"p2.wnn.11", -1.4407790162509728},
    {"p2.wnn.12", -0.68709846437970201},
    {"p2.wnn.13", 0.53943610301940181},
    {"p2.wnn.14", 0.053850888477562774},
    {"p2.wnn.15", 0.033106300486528115},
    {"p2.wnn.16", 0.034703082975972639},
    {"p2.wnn.17", 0.057659758745945928},
    {"p2.wnn.18", 0.077379089914126467},
    {"p2.wnn.19", 0.0043342050574204857},
    {"p2.wnn.20", 0.73896667434244356},
    {"p2.wnn.21", 1.4375625351164754},
    {"p2.wnn.22", 55},
    {"p2.wnn.23", 29.600000000000001},
    {"p2.wnn.24", 0.69999999999999996},
    {"current.electrical.2x_line", 0.010081302143782302},
    {"current.electrical.current_rms", 139.50687174915208},
    {"current.electrical.pole_pass_sidebands", 44.76258999475278},
};

TEST(SeededFeatureTest, PlantWindowsMatchRecordedValues) {
  const std::vector<std::pair<std::string, double>> rows = seeded_features();
  ASSERT_EQ(rows.size(), std::size(kRecorded));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Recorded& want = kRecorded[i];
    ASSERT_EQ(rows[i].first, want.name);
    EXPECT_NEAR(rows[i].second, want.value, 1e-12 * std::fabs(want.value))
        << want.name;
  }
}

}  // namespace
}  // namespace mpros
