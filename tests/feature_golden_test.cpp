// Seeded feature regression: the vibration feature frame, the current
// signature features and the WNN feature vector, computed from seeded
// plant windows, must keep the values recorded before the DSP kernels
// (FFT butterflies, cached DCT basis, modulo-free DWT, magnitudes) were
// optimized. Every value agrees within 1e-12 relative: the kernels are
// bit-identical and the magnitude change moves results by an ulp or so.

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

// Recorded with the textbook radix-2 FFT, per-term cos() DCT, modulo DWT
// and hypot magnitudes.
constexpr Recorded kRecorded[] = {
    {"p0.bearing.bpfi", 0.046048612751055359},
    {"p0.bearing.bpfo", 0.070782686522114349},
    {"p0.bearing.bsf", 0.022461254316802751},
    {"p0.bearing.ftf", 0.0031879177546209883},
    {"p0.broadband.high_freq", 0.034507183310601},
    {"p0.compressor.vane_pass", 0.013833400012263179},
    {"p0.gear.mesh", 0.015233910834510601},
    {"p0.gear.mesh_sidebands", 0.018377023077191863},
    {"p0.order.0.5x", 0.0011123056237551541},
    {"p0.order.1x", 0.30645550415360834},
    {"p0.order.2x", 0.019832404887913737},
    {"p0.order.3x", 0.0030164086464796232},
    {"p0.order.4x", 0.00020516047554927169},
    {"p0.order.harmonic_series", 0.307126635182769},
    {"p0.order.subharmonics", 0.016084000958971462},
    {"p0.overall.crest", 3.5544110298491245},
    {"p0.overall.kurtosis", 2.0771848867963509},
    {"p0.overall.rms", 0.24085462850951661},
    {"p0.wnn.0", 0.85609634816443925},
    {"p0.wnn.1", 0.24084801259951072},
    {"p0.wnn.2", 3.5544110298491245},
    {"p0.wnn.3", 2.0771848867963509},
    {"p0.wnn.4", 2.294921875},
    {"p0.wnn.5", 0.032034133853750292},
    {"p0.wnn.6", -203.70333351904858},
    {"p0.wnn.7", 14.875157569796496},
    {"p0.wnn.8", 6.2633546321768883},
    {"p0.wnn.9", -2.4388548035284261},
    {"p0.wnn.10", -6.5741250475351576},
    {"p0.wnn.11", -6.7348967538994629},
    {"p0.wnn.12", -4.5661755901208663},
    {"p0.wnn.13", -1.2838338442282122},
    {"p0.wnn.14", 0.0040788759831465494},
    {"p0.wnn.15", 0.035897513761648271},
    {"p0.wnn.16", 0.11360100254666598},
    {"p0.wnn.17", 0.0078495784815503199},
    {"p0.wnn.18", 0.0063517037942636681},
    {"p0.wnn.19", 0.00097093441876564576},
    {"p0.wnn.20", 0.83125039101395959},
    {"p0.wnn.21", 0.89377657909188013},
    {"p0.wnn.22", 55},
    {"p0.wnn.23", 29.600000000000001},
    {"p0.wnn.24", 0.69999999999999996},
    {"p1.bearing.bpfi", 0.012097006867600863},
    {"p1.bearing.bpfo", 0.020755178181162268},
    {"p1.bearing.bsf", 0.0067511346532266566},
    {"p1.bearing.ftf", 0.0026048094614484914},
    {"p1.broadband.high_freq", 0.022301476780647395},
    {"p1.compressor.vane_pass", 0.013276641270779281},
    {"p1.gear.mesh", 0.057851538077705281},
    {"p1.gear.mesh_sidebands", 0.052735219275906978},
    {"p1.order.0.5x", 0.00071789602060594586},
    {"p1.order.1x", 0.12756081610249237},
    {"p1.order.2x", 0.019453483484973895},
    {"p1.order.3x", 0.00091686917484409369},
    {"p1.order.4x", 0.00021765168050139974},
    {"p1.order.harmonic_series", 0.12904554966000489},
    {"p1.order.subharmonics", 0.015260082936823299},
    {"p1.overall.crest", 3.2936965161665221},
    {"p1.overall.kurtosis", 2.6757805303098348},
    {"p1.overall.rms", 0.12017423961426596},
    {"p1.wnn.0", 0.39581747435046866},
    {"p1.wnn.1", 0.12017238724727775},
    {"p1.wnn.2", 3.2936965161665221},
    {"p1.wnn.3", 2.6757805303098348},
    {"p1.wnn.4", 2.3681640625},
    {"p1.wnn.5", 0.033301307249908249},
    {"p1.wnn.6", -211.40356094788564},
    {"p1.wnn.7", 7.2059621018018918},
    {"p1.wnn.8", 3.0220770408636364},
    {"p1.wnn.9", -0.49697843846913997},
    {"p1.wnn.10", -3.2752225052139758},
    {"p1.wnn.11", -4.2735210290916008},
    {"p1.wnn.12", -2.6249743780426891},
    {"p1.wnn.13", -0.1355925406701658},
    {"p1.wnn.14", 0.014164562608463811},
    {"p1.wnn.15", 0.022256384241259711},
    {"p1.wnn.16", 0.059186685358650223},
    {"p1.wnn.17", 0.14445536387557498},
    {"p1.wnn.18", 0.16114863845401731},
    {"p1.wnn.19", 0.0014178394794053942},
    {"p1.wnn.20", 0.59737052598262852},
    {"p1.wnn.21", 1.7356220554380686},
    {"p1.wnn.22", 55},
    {"p1.wnn.23", 29.600000000000001},
    {"p1.wnn.24", 0.69999999999999996},
    {"p2.bearing.bpfi", 0.0040277955139146494},
    {"p2.bearing.bpfo", 0.005275496127232113},
    {"p2.bearing.bsf", 0.0020728770204701962},
    {"p2.bearing.ftf", 0.00033758166037128364},
    {"p2.broadband.high_freq", 0.020809073632610517},
    {"p2.compressor.vane_pass", 0.013335735557007339},
    {"p2.gear.mesh", 0.014722925046496355},
    {"p2.gear.mesh_sidebands", 0.018720779024837136},
    {"p2.order.0.5x", 0.00044694671288043983},
    {"p2.order.1x", 0.068716233131122281},
    {"p2.order.2x", 0.019890758626128498},
    {"p2.order.3x", 0.00036533138462276597},
    {"p2.order.4x", 0.00017728846086908893},
    {"p2.order.harmonic_series", 0.071551726977747421},
    {"p2.order.subharmonics", 0.015133894172883786},
    {"p2.overall.crest", 3.213608201949854},
    {"p2.overall.kurtosis", 2.5713017847769892},
    {"p2.overall.rms", 0.061387208882149581},
    {"p2.wnn.0", 0.19727443795848482},
    {"p2.wnn.1", 0.061385992242220223},
    {"p2.wnn.2", 3.213608201949854},
    {"p2.wnn.3", 2.5713017847769892},
    {"p2.wnn.4", 2.4169921875},
    {"p2.wnn.5", 0.036123532269626987},
    {"p2.wnn.6", -214.94452721743306},
    {"p2.wnn.7", 2.8199297195280471},
    {"p2.wnn.8", 1.875468867136636},
    {"p2.wnn.9", -0.15458287914517388},
    {"p2.wnn.10", -1.2548141520739124},
    {"p2.wnn.11", -1.4830263357719156},
    {"p2.wnn.12", -0.40512203231173893},
    {"p2.wnn.13", -0.025439617329687223},
    {"p2.wnn.14", 0.053702730660385459},
    {"p2.wnn.15", 0.034297265801271584},
    {"p2.wnn.16", 0.038887433581300861},
    {"p2.wnn.17", 0.058278951321345307},
    {"p2.wnn.18", 0.078195908107137363},
    {"p2.wnn.19", 0.0049685798341308571},
    {"p2.wnn.20", 0.73166913069442863},
    {"p2.wnn.21", 1.4699342227028198},
    {"p2.wnn.22", 55},
    {"p2.wnn.23", 29.600000000000001},
    {"p2.wnn.24", 0.69999999999999996},
    {"current.electrical.2x_line", 0.009632960760842562},
    {"current.electrical.current_rms", 139.50024578307136},
    {"current.electrical.pole_pass_sidebands", 44.801831313713919},
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
