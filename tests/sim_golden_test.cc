// Bit-identity guard for the simulator hot path (the zero-allocation /
// arena refactor and any future engine change).
//
// Each golden block below is a verbatim hexfloat snapshot of the per-message
// delivery times (measured window, in delivery order) produced by the
// pre-refactor engine on the mixed-topology system — tree, mesh and crossbar
// clusters behind the tree ICN2 — under three disciplines: cut-through C/D,
// store-and-forward C/D with interleaved slots, and randomized-ascent
// routing. A fourth block, captured before the hop-record engine, runs the
// paper's N=544 organization (32-flit messages over 16-link paths) under
// store-and-forward C/D, bursty MMPP arrivals and a 5% hot spot. A single
// ULP of drift in any delivery, or any reordering of the event schedule,
// fails EXPECT_EQ on exact doubles.
//
// Regenerate (after an *intentional* schedule change only) with
//   COC_REGEN_SIM_GOLDEN=1 ./sim_golden_test
// and paste the printed blocks over the arrays.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gtest/gtest.h"
#include "sim/coc_system_sim.h"
#include "system/presets.h"

namespace coc {
namespace {

struct GoldenCase {
  const char* name;
  Icn2SlotPolicy policy;
  CondisMode condis;
  SimConfig::AscentPolicy ascent;
  std::uint64_t seed;
  std::int64_t measured;
  const std::vector<double>& golden;
  // The first three blocks share the mixed-topology system at 2e-4.
  SystemConfig (*make_system)(MessageFormat) = MakeMixedTopologySystem;
  MessageFormat message{16, 64};
  double lambda_g = 2e-4;
  Workload workload{};
};

SimResult RunCase(const GoldenCase& c) {
  const auto sys = c.make_system(c.message);
  const CocSystemSim sim(sys, c.policy);
  SimConfig cfg;
  cfg.lambda_g = c.lambda_g;
  cfg.workload = c.workload;
  cfg.warmup_messages = 100;
  cfg.measured_messages = c.measured;
  cfg.drain_messages = 50;
  cfg.seed = c.seed;
  cfg.condis_mode = c.condis;
  cfg.ascent = c.ascent;
  cfg.record_deliveries = true;
  return sim.Run(cfg);
}

void CheckOrRegen(const GoldenCase& c) {
  const SimResult r = RunCase(c);
  ASSERT_EQ(r.delivery_times.size(), static_cast<std::size_t>(c.measured));
  const char* regen = std::getenv("COC_REGEN_SIM_GOLDEN");
  if (regen != nullptr && regen[0] == '1') {
    std::printf("// --- %s ---\n", c.name);
    for (std::size_t i = 0; i < r.delivery_times.size(); ++i) {
      std::printf("    %a,%s", r.delivery_times[i],
                  (i % 3 == 2 || i + 1 == r.delivery_times.size()) ? "\n"
                                                                   : "");
    }
    ADD_FAILURE() << c.name << ": regeneration mode, no comparison performed";
    return;
  }
  ASSERT_EQ(c.golden.size(), r.delivery_times.size())
      << c.name << ": golden block missing or stale";
  for (std::size_t i = 0; i < r.delivery_times.size(); ++i) {
    EXPECT_EQ(r.delivery_times[i], c.golden[i]) << c.name << " index " << i;
  }
}

const std::vector<double> kCutThroughGolden = {
    0x1.e8323a9ccea14p+13,    0x1.e83b00f68f1fp+13,    0x1.eabcd77aec9f2p+13,
    0x1.ef011f3db5c3fp+13,    0x1.f55f00bf31597p+13,    0x1.fab6bd785d8cep+13,
    0x1.080f978abe4edp+14,    0x1.0a9313dbc5cf1p+14,    0x1.0c2749f161ee5p+14,
    0x1.0e5e1da236885p+14,    0x1.0f3eba4cc80fep+14,    0x1.118aabb0a8f82p+14,
    0x1.1797916ec6921p+14,    0x1.19882957b34b7p+14,    0x1.1a27f562e6672p+14,
    0x1.1a60e158d266cp+14,    0x1.1be64c771eccep+14,    0x1.1e051b3c6962dp+14,
    0x1.2026c026af3f9p+14,    0x1.2676d4f2acfd3p+14,    0x1.294a67b047663p+14,
    0x1.2aceacdd90663p+14,    0x1.2e6dc38a75762p+14,    0x1.2fdad4f3924abp+14,
    0x1.305a1ebca60fdp+14,    0x1.308876c5ab978p+14,    0x1.314755f70ddd2p+14,
    0x1.354f45968a5bep+14,    0x1.3c51a58d15aa2p+14,    0x1.3f409d5802048p+14,
    0x1.43cc11e926656p+14,    0x1.45e212df09e86p+14,    0x1.45e7d2567c1e4p+14,
    0x1.471956b9d954ap+14,    0x1.49b34390efab1p+14,    0x1.4be09265af02cp+14,
    0x1.4e399473e2d4ep+14,    0x1.4f15822005d4cp+14,    0x1.528b6ad653fb2p+14,
    0x1.53b6c7c0c16dfp+14,    0x1.543cbf4e6453dp+14,    0x1.561fba830fac6p+14,
    0x1.5a5e9b907af43p+14,    0x1.5b1c209aaf2c1p+14,    0x1.5c2f4de72dba3p+14,
    0x1.64a637a66b66cp+14,    0x1.64f8e8a7245dap+14,    0x1.672cb4cce52aap+14,
    0x1.6a08eb4ff741dp+14,    0x1.6ac90c7a19f1p+14,    0x1.6eb6144827afp+14,
    0x1.6f11658cc0b33p+14,    0x1.748f51192d54cp+14,    0x1.795b897277108p+14,
    0x1.7bcd07878d57cp+14,    0x1.7e8b086b68c22p+14,    0x1.7eb7c4fd674b7p+14,
    0x1.7f21560c8d47dp+14,    0x1.7f6fd4a267b08p+14,    0x1.8157f3122a8d9p+14,
    0x1.84af598d3a66ap+14,    0x1.87fe52202d32fp+14,    0x1.90c0ef19faf73p+14,
    0x1.9121e17b1f751p+14,    0x1.92d6bc3f1471bp+14,    0x1.941cd21bb4a96p+14,
    0x1.94d4a55623ed4p+14,    0x1.95db6910dd8c6p+14,    0x1.99119746171bfp+14,
    0x1.9c5bafe7ab742p+14,    0x1.a36e8943fdef4p+14,    0x1.a56bac0c8a94ap+14,
    0x1.a5943066301c4p+14,    0x1.a63122ec7f847p+14,    0x1.a75c63df0d68dp+14,
    0x1.a796c04ca2816p+14,    0x1.ab7cd93192e0cp+14,    0x1.abb5bb5f48af7p+14,
    0x1.ae8aac914ba87p+14,    0x1.b190ebef1a308p+14,    0x1.b4d4f355762bap+14,
    0x1.b4e3fa0e0bd44p+14,    0x1.b5dfea90f912fp+14,    0x1.b988fd26d06b5p+14,
    0x1.c07f049c43f6p+14,    0x1.c1161e6ee34e5p+14,    0x1.c3d74c83b4f6cp+14,
    0x1.c79d8be0d9b7ap+14,    0x1.caa17a82b76e4p+14,    0x1.ce03020f81728p+14,
    0x1.cfd56b9a9d344p+14,    0x1.d29f58c3a31dfp+14,    0x1.d33b226ac0769p+14,
    0x1.d34ce00c67327p+14,    0x1.d3668b1dc8941p+14,    0x1.d3cf3db68540bp+14,
    0x1.d45ff9f5ef793p+14,    0x1.d5a8eb496ffcep+14,    0x1.d5ac7f791c298p+14,
    0x1.d6a630d776434p+14,    0x1.d79a2a63f8ae1p+14,    0x1.d89cf78b39951p+14,
    0x1.d9a16eefcdaf3p+14,    0x1.dc76e4e390343p+14,    0x1.dc867514d56f1p+14,
    0x1.deef05162332bp+14,    0x1.e0d6248314eb5p+14,    0x1.e126f56d4d7cfp+14,
    0x1.e8459db1285e2p+14,    0x1.eb88acc5f8405p+14,    0x1.f53a80871a5f5p+14,
    0x1.fb4e2acd2ad57p+14,    0x1.01b1fb9957d3cp+15,    0x1.03b6adb3946f6p+15,
    0x1.043074689be43p+15,    0x1.0740ddaab752fp+15,    0x1.08506b6d46795p+15,
    0x1.09a64e087ec4bp+15,    0x1.0aeb5462a8004p+15,    0x1.0b028541be8cdp+15,
    0x1.0d432058be6dp+15,    0x1.0d9ad5b8ea7a2p+15,    0x1.0e807c62f38a6p+15,
    0x1.10871df4e5a2ap+15,    0x1.1362e7d411407p+15,    0x1.149ee8daf945fp+15,
    0x1.152411c1ce77bp+15,    0x1.155746a72a858p+15,    0x1.173b696440d69p+15,
    0x1.17751bb0e38c6p+15,    0x1.185b53c582344p+15,    0x1.18edb7eab56f7p+15,
    0x1.19dc31ce1548dp+15,    0x1.1b1a967e189efp+15,    0x1.1c384c2f12bf9p+15,
    0x1.1cfd65a6f29b2p+15,    0x1.1dfda6357e362p+15,    0x1.1fd0cf1d8e48fp+15,
    0x1.2037892f13f5p+15,    0x1.253eaa8f67e37p+15,    0x1.2665c91191ccbp+15,
    0x1.27081be87f953p+15,    0x1.2b1363397ac7p+15,    0x1.2ddcdad21fc86p+15,
    0x1.2e7148e436fa9p+15,    0x1.2f2e6d996c9a7p+15,    0x1.2f533681e51f9p+15,
    0x1.2fdec0b987965p+15,    0x1.300aa12b569bep+15,    0x1.314fd6a88279p+15,
    0x1.327e4760731fp+15,    0x1.32d804de71583p+15,    0x1.3510f3bc682c5p+15,
    0x1.352c1369fe228p+15,    0x1.372b1868e67a6p+15,    0x1.3801399870626p+15,
    0x1.38974f5798e1fp+15,    0x1.3aa4942f27882p+15,    0x1.3c132a8bd3087p+15,
    0x1.3dc1258d9513dp+15,    0x1.3dd7b153aeb01p+15,    0x1.3f2e9df0bacfap+15,
    0x1.3f51096a8bc1bp+15,    0x1.40cf90f0f713dp+15,    0x1.41b6dae45260ap+15,
    0x1.42587d9008836p+15,    0x1.439b88f2c9d67p+15,    0x1.43d43e61a793cp+15,
    0x1.44171cc806755p+15,    0x1.462fd459df239p+15,    0x1.48891586df8ecp+15,
    0x1.48f069d5476cap+15,    0x1.49269763f248bp+15,    0x1.4931008a59864p+15,
    0x1.49f6baf0f8ddep+15,    0x1.4d4b376deea27p+15,    0x1.4d5ec49788f2ap+15,
    0x1.4f4fbc401faf1p+15,    0x1.4fa03fc07da61p+15,    0x1.50d94912d3228p+15,
    0x1.518c9da78e278p+15,    0x1.561674fe48cbap+15,    0x1.577492c3eeda4p+15,
    0x1.58f96601045c3p+15,    0x1.5a289e6350069p+15,    0x1.5b09aa1a01cc4p+15,
    0x1.5b5c25ddfbd97p+15,    0x1.5cdaf8006a275p+15,    0x1.5f2d96961c1e9p+15,
    0x1.5f6e07c83b78p+15,    0x1.6006b0bbe960dp+15,    0x1.6164faa5534aap+15,
    0x1.6327628a86919p+15,    0x1.649ea8ef9fd85p+15,    0x1.6526125d4d1a2p+15,
    0x1.69868fdd516cbp+15,    0x1.6aa7f09ecf64ep+15,    0x1.6b61304a94574p+15,
    0x1.6d3637de45a63p+15,    0x1.6d7917c1d646p+15,    0x1.6e81d9f3da92fp+15,
    0x1.6f7f6ff23d37cp+15,    0x1.6f80c4d7a491cp+15,    0x1.71654f32dac59p+15,
    0x1.717762981e4dp+15,    0x1.7282bb4ffaaccp+15,    0x1.72b42b15ee1cfp+15,
    0x1.7600dea975517p+15,    0x1.76f2d38646e11p+15,    0x1.77301d7156aaep+15,
    0x1.7a759791c9a2dp+15,    0x1.7f791e63235c1p+15,    0x1.7fbb6eb197e17p+15,
    0x1.822ce526b14d4p+15,    0x1.8280a1c54e278p+15,    0x1.83e4bc4ffd309p+15,
    0x1.86439dae41718p+15,    0x1.88eb51815f2a6p+15,    0x1.893aaacc5c443p+15,
    0x1.8bc2e802ffd8ap+15,    0x1.8c5cc1c6d7c06p+15,    0x1.8eca5d14a826bp+15,
    0x1.8f6a0515c2d6cp+15,    0x1.90e4d089dc1edp+15,    0x1.914500ad7132p+15,
    0x1.923830b069731p+15,    0x1.924097ec2b9c4p+15,    0x1.925fd8fb16947p+15,
    0x1.93ab5363af7a3p+15,    0x1.94714ba1c7fb8p+15,    0x1.9826c2bea66bbp+15,
    0x1.986678ab15288p+15,    0x1.98a43f84e9f09p+15,    0x1.9aee2bf8c887cp+15,
    0x1.9af2d1eabc522p+15,    0x1.9b6784ff784b3p+15,    0x1.9bca54c85a239p+15,
    0x1.9f4bfa16ea11fp+15,    0x1.a0f35cae5f266p+15,    0x1.a197dae04e92p+15,
    0x1.a27775572286ep+15,    0x1.a63c4d2cbc3dcp+15,    0x1.a6cf838e67e6ep+15,
    0x1.a9598d074a006p+15,    0x1.ac0c0ddaf7c17p+15,    0x1.adb00fc5f3accp+15,
    0x1.ae45feadc8dbdp+15,    0x1.ae53b1cb6f1bp+15,    0x1.aeb404a879858p+15,
    0x1.afb7dab14e023p+15,};

const std::vector<double> kStoreForwardGolden = {
    0x1.1c8c02ec33474p+14,    0x1.1d21b5a7e2206p+14,    0x1.223301c36f62ap+14,
    0x1.251126aa3678ep+14,    0x1.270e21d97c912p+14,    0x1.28abe06fe98a5p+14,
    0x1.28bba3ed2e928p+14,    0x1.291ca39a0205fp+14,    0x1.2f55153f8796cp+14,
    0x1.326b43186c917p+14,    0x1.33d50b9d8c40dp+14,    0x1.375a20612bb7fp+14,
    0x1.38de81d34d94p+14,    0x1.3a2f9cdd4cae6p+14,    0x1.3af1e8f68e487p+14,
    0x1.3c7a7d18b8d89p+14,    0x1.3e809e6bbfad7p+14,    0x1.3f9b831dc0708p+14,
    0x1.4310e7d521fbbp+14,    0x1.45a4924d814c2p+14,    0x1.478a61357b331p+14,
    0x1.48178edfa8656p+14,    0x1.48196752d08cap+14,    0x1.487ae6220c26cp+14,
    0x1.48fc0d23aaac9p+14,    0x1.49f8d17dd3343p+14,    0x1.4c0eef2065adap+14,
    0x1.4d7df330a317cp+14,    0x1.4e8372892949dp+14,    0x1.568fbded0f2dep+14,
    0x1.58447b65aba7dp+14,    0x1.5a47f48a6f038p+14,    0x1.5b7fde768e36cp+14,
    0x1.5f8647828c979p+14,    0x1.603120143040dp+14,    0x1.6133e07c7148fp+14,
    0x1.64bb4eec72a2bp+14,    0x1.64d6d29961457p+14,    0x1.656aa717bebb7p+14,
    0x1.66cc1e65cd5d1p+14,    0x1.693890a559bf7p+14,    0x1.6b314735b73bfp+14,
    0x1.6eb30bde9e47fp+14,    0x1.6f21d27465292p+14,    0x1.6f95103ff31a3p+14,
    0x1.75cadeda5318dp+14,    0x1.78b4dda10613p+14,    0x1.7d28c060a92f5p+14,
    0x1.7e4d8fcc67facp+14,    0x1.80350bfbd0b76p+14,    0x1.823bde0e798c9p+14,
    0x1.8472fd360e1cap+14,    0x1.894f2408325b8p+14,    0x1.8ba9499a2aefp+14,
    0x1.8cbda388c4cf2p+14,    0x1.8d717a529c6d4p+14,    0x1.92864435c9ce5p+14,
    0x1.a0c8572c3ed13p+14,    0x1.a2fb10d88d9a7p+14,    0x1.aa965ac5fb342p+14,
    0x1.b17cd1dbbc444p+14,    0x1.b42f08ae7f01bp+14,    0x1.b5a324ee63cap+14,
    0x1.b7a1329475a0cp+14,    0x1.bbd0f2bcaa76fp+14,    0x1.c1f4829f6700ap+14,
    0x1.c4a45a8370ee1p+14,    0x1.c52ba5e96cc65p+14,    0x1.c5dcdcc970143p+14,
    0x1.cf2e554d7fa2p+14,    0x1.cfba4105f58fap+14,    0x1.d2c7f46714d87p+14,
    0x1.d7c3429250ad1p+14,    0x1.da3e798eb4876p+14,    0x1.db77124046bb7p+14,
    0x1.de86f76214efbp+14,    0x1.de97cfa00d2bap+14,    0x1.df5aba6fe6c1ap+14,
    0x1.e20560102fea5p+14,    0x1.e5881dec3dba3p+14,    0x1.e730d98071ba2p+14,
    0x1.ea3e3e92e93dap+14,    0x1.eb1b74ba9872fp+14,    0x1.ed7614956a366p+14,
    0x1.eee505d85ce24p+14,    0x1.ef4c8a07ba7cdp+14,    0x1.f379010b160f8p+14,
    0x1.f748c12c00cc1p+14,    0x1.f9a5132d13d67p+14,    0x1.fd5f191163796p+14,
    0x1.fde3f4a89ff14p+14,    0x1.fe9f24dfec4f8p+14,    0x1.020412d113da9p+15,
    0x1.0281d25b7a58ap+15,    0x1.069a39726474dp+15,    0x1.076c919b6d1a5p+15,
    0x1.09067c3278e74p+15,    0x1.098e8fbe93239p+15,    0x1.0ad084de239cep+15,
    0x1.0c4f4af4d9573p+15,    0x1.0d54220dbee3ap+15,    0x1.0dc5c518e672bp+15,
    0x1.0fbb03c19fe2ep+15,    0x1.109ec289203c6p+15,    0x1.115885819924ap+15,
    0x1.117a7ef085d79p+15,    0x1.11a1990738f66p+15,    0x1.12f5cf9609dfbp+15,
    0x1.14a22b7e6d17bp+15,    0x1.157217e431de6p+15,    0x1.15bc4c7a2aec7p+15,
    0x1.15effd2bae65ap+15,    0x1.1616586689021p+15,    0x1.165cd8144a0aap+15,
    0x1.167501a107429p+15,    0x1.17e93f1161408p+15,    0x1.17f48d618f0aep+15,
    0x1.184802b5e8143p+15,    0x1.19602bf19596fp+15,    0x1.1a2aa569cadaep+15,
    0x1.1d263f1ebb6c2p+15,    0x1.1db471f5ad994p+15,    0x1.1dd6685a95278p+15,
    0x1.1f896edd6913fp+15,    0x1.21dc54c512f54p+15,    0x1.23085f963d3fp+15,
    0x1.234ead9082668p+15,    0x1.2832bcf69b439p+15,    0x1.28a777668b0c7p+15,
    0x1.2ccdc2f580604p+15,    0x1.2eeeabba3ecf3p+15,    0x1.3015fb8d59aefp+15,
    0x1.3210c66a83bfbp+15,    0x1.32313e6bf9377p+15,    0x1.32cc5ab2f12c9p+15,
    0x1.3389032cada4ap+15,    0x1.33b3a72f845bp+15,    0x1.35bb85eaf89f5p+15,
    0x1.369ea703b93d1p+15,    0x1.36cb2410b4eb3p+15,    0x1.37284dce318f3p+15,
    0x1.37c2fbe98e518p+15,    0x1.385b564d55a9cp+15,    0x1.3c40d3b8ccfap+15,
    0x1.3c62912e05c4bp+15,    0x1.3cef96a82dfe7p+15,    0x1.3d09ddd8937cfp+15,
    0x1.3d64d24f16bb7p+15,    0x1.3edb0334a1a7fp+15,    0x1.3fab885b81bb7p+15,
    0x1.4013e8bcb3d5ep+15,    0x1.4048c653ae5c5p+15,    0x1.405127d5c253dp+15,
    0x1.40b358d195836p+15,    0x1.411996543ff55p+15,    0x1.43518096690e3p+15,
    0x1.446262af10af5p+15,    0x1.4483a1f64c6e5p+15,    0x1.4514f751b72bbp+15,
    0x1.47b6a505e4da1p+15,    0x1.487cc4c907853p+15,    0x1.48b1638db7921p+15,
    0x1.48b9f1af8fe5ep+15,    0x1.4b38e96f2a4c9p+15,    0x1.4e6ae2ea1b878p+15,
    0x1.51b2deaea9addp+15,    0x1.521fc3aa3d701p+15,    0x1.5232fd1b7bb26p+15,
    0x1.523fec3f571b8p+15,    0x1.5590acd35b87bp+15,    0x1.55d84e93b073cp+15,
    0x1.582696122061dp+15,    0x1.5882e66b3430dp+15,    0x1.58baa664be8fbp+15,
    0x1.58d6dbe97e684p+15,    0x1.59ac51cba89fcp+15,    0x1.5bbad85b3a1c7p+15,
    0x1.5c6f579867743p+15,    0x1.5d86f72bc3e04p+15,    0x1.5df13ff544f7ap+15,
    0x1.5e4f8e22b8107p+15,    0x1.5e682fdd36b8bp+15,    0x1.618174b5fda4cp+15,
    0x1.6240601635e64p+15,    0x1.62d3fda95970dp+15,    0x1.6564b5edd0d22p+15,
    0x1.65727d660f815p+15,    0x1.66c29d4f96e7bp+15,    0x1.66d5984e97dc3p+15,
    0x1.6930b6ea56bbbp+15,    0x1.6935b104ec81ap+15,    0x1.69ccca67efcdp+15,
    0x1.6e502b4637d06p+15,    0x1.6e8ed161afe89p+15,    0x1.70111cddb6424p+15,
    0x1.714482781f741p+15,    0x1.72a349346a55cp+15,    0x1.73e235208e755p+15,
    0x1.73eb331444bb5p+15,    0x1.744a3d8d7d999p+15,    0x1.7650519b31937p+15,
    0x1.76d9f34680a56p+15,    0x1.76ebc38d82d56p+15,    0x1.77d434a22917cp+15,
    0x1.7824703e553a1p+15,    0x1.78957ff7cfe0ep+15,    0x1.78eb38290616ep+15,
    0x1.79fa3d0d20669p+15,    0x1.7b7181033ab3p+15,    0x1.7bb09b1b88c19p+15,
    0x1.7cd34a3078d8ap+15,    0x1.807f7a177d84dp+15,    0x1.81497cb4ae4ecp+15,
    0x1.85f4c9a97c7b8p+15,    0x1.87b057f09cdddp+15,    0x1.87d70f7330bb5p+15,
    0x1.87f3256626b3bp+15,    0x1.880f8ec4b8bf3p+15,    0x1.897752d0ea5a2p+15,
    0x1.8cc69cebf00fp+15,    0x1.8d979d5b57d33p+15,    0x1.903f9c006a7bdp+15,
    0x1.920d937c8d049p+15,    0x1.9476d73a381bep+15,    0x1.94c6a1aff1799p+15,
    0x1.94ecd00821b47p+15,    0x1.960672fc136e1p+15,    0x1.97abbe0c1911cp+15,
    0x1.97eb3d437c872p+15,    0x1.99936ecdd276ep+15,    0x1.9a93893591279p+15,
    0x1.9c30c1b18c5e6p+15,    0x1.9e89b1de66ebp+15,    0x1.9f394f516ca19p+15,
    0x1.a1006419129d8p+15,    0x1.a2b55046c455cp+15,    0x1.a4c7c11937f7bp+15,
    0x1.a599c1e4d5453p+15,    0x1.a6b33df4f3f8cp+15,    0x1.a7fa27e72b146p+15,
    0x1.aafeb4f21b90dp+15,    0x1.ab7c327887e3p+15,    0x1.ab886f13f577ep+15,
    0x1.aba39fdb60382p+15,    0x1.ac429a7f66f2dp+15,    0x1.ade71c5b48028p+15,
    0x1.b151483a4bc49p+15,    0x1.b7a7fb8180574p+15,    0x1.b96e1a141c5fdp+15,
    0x1.bad7387d8314fp+15,};

const std::vector<double> kRandomizedGolden = {
    0x1.19627b202703ap+14,    0x1.1966482b97638p+14,    0x1.19a2b37d2becbp+14,
    0x1.1a86be9e41d8p+14,    0x1.1f92ce1b06d79p+14,    0x1.265b37027ae9ap+14,
    0x1.2825a1203b9bap+14,    0x1.2b4f8f3717b12p+14,    0x1.341d9477d2495p+14,
    0x1.35dca99a74abep+14,    0x1.3e3fed60b1a52p+14,    0x1.3eb8f23c0d4e1p+14,
    0x1.43f31170509e1p+14,    0x1.44a58023e19dbp+14,    0x1.46014b5bc987p+14,
    0x1.46a4d590e4a4bp+14,    0x1.4acd77e3e07d9p+14,    0x1.4ba731c4f7ad8p+14,
    0x1.4c783d5c3a5fep+14,    0x1.4d7dfb4fab0e7p+14,    0x1.500be890afcbfp+14,
    0x1.52d8acea1ab9fp+14,    0x1.53249708eb3ddp+14,    0x1.53b04f35db466p+14,
    0x1.587ba45c7a729p+14,    0x1.5db77a1f51e89p+14,    0x1.66e6ae0d55812p+14,
    0x1.69d6c174c9309p+14,    0x1.6e34d17cfb05cp+14,    0x1.70c8dcba89cc2p+14,
    0x1.724f577986574p+14,    0x1.72b00623a3a08p+14,    0x1.73a94eb25b4b2p+14,
    0x1.76f49f3e81a6cp+14,    0x1.7772b93feef6bp+14,    0x1.78594477f5a36p+14,
    0x1.7d9f86c7662fdp+14,    0x1.7df7215890852p+14,    0x1.85c926af4aef1p+14,
    0x1.89aa54f5f3e17p+14,    0x1.8b189292749c3p+14,    0x1.932b41322aec8p+14,
    0x1.987c115938cadp+14,    0x1.9a2ec3002241ap+14,    0x1.9ca0040296fdap+14,
    0x1.9caf87061a944p+14,    0x1.a10e13a4b816cp+14,    0x1.a29b59910536bp+14,
    0x1.a45159d96e6d1p+14,    0x1.a68e35f8f2c9bp+14,    0x1.accc2c9ae4ab1p+14,
    0x1.af0f600ce1d56p+14,    0x1.b2ddf14a2ee33p+14,    0x1.b37eb7a13efcdp+14,
    0x1.b41808e1aa7fp+14,    0x1.bc6eeab518862p+14,    0x1.be96b56009062p+14,
    0x1.bea3286179824p+14,    0x1.c021f0759ee25p+14,    0x1.cc6afed00453p+14,
    0x1.d064151376977p+14,    0x1.d09ef809a1193p+14,    0x1.d2c8c24094179p+14,
    0x1.d355474f410a3p+14,    0x1.d79580ed1cf3ep+14,    0x1.de05da9c38d8ep+14,
    0x1.dfec1b0e4b5dbp+14,    0x1.dffdbe84383fep+14,    0x1.e033c1af4899ep+14,
    0x1.e1803f2fb72f2p+14,    0x1.e2300e11120cp+14,    0x1.e68dcb800617p+14,
    0x1.ee55656e34ae5p+14,    0x1.eec74e56a6365p+14,    0x1.ef0295e39eae7p+14,
    0x1.f01b70e82dd73p+14,    0x1.f063a7376823ep+14,    0x1.f816e45c3a827p+14,
    0x1.fac05f542cf45p+14,    0x1.fdc102d23afb6p+14,    0x1.ff4d641fe0fep+14,
    0x1.0132102ac12a4p+15,    0x1.0187f5cd1b645p+15,    0x1.026184c0b4f58p+15,
    0x1.027e2bd502763p+15,    0x1.03202e18a2485p+15,    0x1.0434b75687ed9p+15,
    0x1.0665143046857p+15,    0x1.09fb1cbd8b4c3p+15,    0x1.0aa722bb9c554p+15,
    0x1.0ac41257475c4p+15,    0x1.0af2809d468c7p+15,    0x1.0e6658db549cbp+15,
    0x1.0e6af68a17b56p+15,    0x1.0eb7f64013d38p+15,    0x1.111fd4fa7a8a2p+15,
    0x1.112c1ab64a44ap+15,    0x1.12212e1edb576p+15,    0x1.150b637065496p+15,
    0x1.156cc5ce92f5bp+15,    0x1.16b7e3c52e32dp+15,    0x1.176bb1464779p+15,
    0x1.178e166de24cdp+15,    0x1.1ad48ed1dcb78p+15,    0x1.1ad74d5ac2704p+15,
    0x1.1ba3b891022ecp+15,    0x1.1fb0808fe7901p+15,    0x1.205a03dd6c804p+15,
    0x1.2065b92d79b1fp+15,    0x1.2130f412b57ap+15,    0x1.24b0af32ee217p+15,
    0x1.24f7718a7bc52p+15,    0x1.263cec79f97c5p+15,    0x1.279f5de920808p+15,
    0x1.27a8542ec24bap+15,    0x1.34e1d509b7907p+15,    0x1.35ff4ce9e4b7ap+15,
    0x1.3640398bf754p+15,    0x1.36c64df8f59fdp+15,    0x1.37dd31d558765p+15,
    0x1.392b0de22883ep+15,    0x1.39395a1b68e31p+15,    0x1.395f7af643f24p+15,
    0x1.397648ba51994p+15,    0x1.3b14c5e9d2de9p+15,    0x1.3b321ac89fbb3p+15,
    0x1.3cc662849dcfdp+15,    0x1.3e4f67d31121ap+15,    0x1.3ef835dd15b61p+15,
    0x1.3fe84a91761e2p+15,    0x1.405017e6a415fp+15,    0x1.40a63641df0adp+15,
    0x1.41681840367f6p+15,    0x1.41ac47be9d98cp+15,    0x1.41aea5befa1adp+15,
    0x1.4226ca44c037p+15,    0x1.4263e8cc90067p+15,    0x1.42e668b591b7ap+15,
    0x1.4387ae48c690ap+15,    0x1.43c2c1d527c83p+15,    0x1.44639f9477577p+15,
    0x1.4474859f12168p+15,    0x1.45ac225f490fep+15,    0x1.46429a1b75fd2p+15,
    0x1.4d3be98bf4698p+15,    0x1.4d6a0d09835a1p+15,    0x1.4ed067a38fa3dp+15,
    0x1.4f3cbf01f19d1p+15,    0x1.513a95099944p+15,    0x1.575a8aacd8ee3p+15,};

const std::vector<double> kPaper544Golden = {
    0x1.d66d25a15c1f8p+9,    0x1.d973c57f1b7b5p+9,    0x1.de1ff1a932d19p+9,
    0x1.ded66fcae058dp+9,    0x1.e1727dd107012p+9,    0x1.e6c5eaba1fd52p+9,
    0x1.e71c1195a0dcdp+9,    0x1.ed37dc9ea2be5p+9,    0x1.ef2f9dfbcb97cp+9,
    0x1.ef78c9da1f5e8p+9,    0x1.f0c16d06d19e7p+9,    0x1.f7b7711f6513ep+9,
    0x1.f7e2da49da348p+9,    0x1.f9c8d9921534ap+9,    0x1.fdfcb9cdbd5dbp+9,
    0x1.0035d4e617ecep+10,    0x1.00a0a6211afdp+10,    0x1.0454d17f09c62p+10,
    0x1.076da58a81665p+10,    0x1.0778aa1951456p+10,    0x1.090115d4ee611p+10,
    0x1.090b2298d2c39p+10,    0x1.0aa009b50875fp+10,    0x1.0d8bf796c6794p+10,
    0x1.0f77626b3cc9bp+10,    0x1.0fdb18b0de952p+10,    0x1.11647a2f0b0cfp+10,
    0x1.116aafe8b1feep+10,    0x1.1b85ee0ba1be6p+10,    0x1.1bb70f5d8a317p+10,
    0x1.1c079c759acf4p+10,    0x1.1edf23fcfef96p+10,    0x1.1f743e7829ef3p+10,
    0x1.22b0504258ef2p+10,    0x1.2381faaada4acp+10,    0x1.24681f880966cp+10,
    0x1.27c383e22610cp+10,    0x1.2cc9a8bf552aep+10,    0x1.2d07d6a06a57bp+10,
    0x1.2d1075efca5fcp+10,    0x1.2f1607a569c5ap+10,    0x1.319521f7fb86p+10,
    0x1.4132f9ca6f557p+10,    0x1.5163348b9546dp+10,    0x1.51a0e7b1892afp+10,
    0x1.5299a12b2e89fp+10,    0x1.5442c39c3464ep+10,    0x1.54a86015ad698p+10,
    0x1.555e16cc28e8bp+10,    0x1.571d5770d0541p+10,    0x1.5865948194a6ep+10,
    0x1.595c7d328f4e7p+10,    0x1.5a23fa2020b6fp+10,    0x1.5c0c6f8585e88p+10,
    0x1.5d08e3281c01p+10,    0x1.5d9efc2c6a709p+10,    0x1.5d9efc2c6a709p+10,
    0x1.5de0337831189p+10,    0x1.6221bcaf7cde9p+10,    0x1.6226396052803p+10,
    0x1.630d3c234a008p+10,    0x1.65dd89e0d2ad6p+10,    0x1.664b905cb5f63p+10,
    0x1.67edac5636bc1p+10,    0x1.69968790fd6d6p+10,    0x1.69be90691bc9p+10,
    0x1.6a448f646b139p+10,    0x1.6a671ec094081p+10,    0x1.6a88a7f7dfcffp+10,
    0x1.6d7ac9c12c2aap+10,    0x1.6e0019a0678fp+10,    0x1.704e2f68a5539p+10,
    0x1.71bc52f877f0ap+10,    0x1.75bab95ede566p+10,    0x1.774f30c8af2e6p+10,
    0x1.7ac1d3fe9cccap+10,    0x1.7be460e658d51p+10,    0x1.7dfaa8fc90822p+10,
    0x1.80a52de7ccfccp+10,    0x1.8578d53975096p+10,    0x1.86d745c4ad59p+10,
    0x1.8cb53d459f9cap+10,    0x1.8d99d9c4d82ecp+10,    0x1.91d1a1256039cp+10,
    0x1.91db62fc23f4cp+10,    0x1.924993c4c3061p+10,    0x1.92c481ca9aa65p+10,
    0x1.95c58b939c1bdp+10,    0x1.961cec336fbacp+10,    0x1.96c4bc0dafbb7p+10,
    0x1.983c4958529adp+10,    0x1.98644df706251p+10,    0x1.98ca169410fffp+10,
    0x1.9997a7e22b8c1p+10,    0x1.9997ee3fb9746p+10,    0x1.9a4b2d5e5c9e3p+10,
    0x1.9aab0c99c0f9bp+10,    0x1.9e9ffea20746cp+10,    0x1.9f51523b8bb85p+10,
    0x1.a12e70b0bd07fp+10,    0x1.a2c2cf876788cp+10,    0x1.a35299e9a0327p+10,
    0x1.a3ecb894d5ad6p+10,    0x1.a4844cbe8e2dcp+10,    0x1.a5c88cdc4c451p+10,
    0x1.a7d464aa23445p+10,    0x1.a9a5c8fca71e6p+10,    0x1.a9f96eb42b28cp+10,
    0x1.aa94f8ac18eacp+10,    0x1.abd66efde2b23p+10,    0x1.ac5910b2546a9p+10,
    0x1.ad60ee4fef58cp+10,    0x1.ae2a05b14a38bp+10,    0x1.af59e63d815cep+10,
    0x1.b25bdd4bb8788p+10,    0x1.b41fc991792b2p+10,    0x1.b58c06cfce2dap+10,
    0x1.b70f1bdf46f4fp+10,    0x1.b7da17646ad48p+10,    0x1.b8006d688369p+10,
    0x1.b98b62f8c3ef8p+10,    0x1.ba0fbd156ff7cp+10,    0x1.bb4856f9c038ap+10,
    0x1.bbf8eaab521fap+10,    0x1.bc832deb95d7p+10,    0x1.c0828a148b98ep+10,
    0x1.c3abbb53dce48p+10,    0x1.c6f9371ec5ad8p+10,    0x1.cc8c49a795f36p+10,
    0x1.cd34c3ed8dc6bp+10,    0x1.ce8c22e2bc99bp+10,    0x1.d0ccdd1c525d4p+10,
    0x1.d4ab956e3de2ep+10,    0x1.d5ec066ff2b62p+10,    0x1.d6120503929f6p+10,
    0x1.d8ec28e2fa4ccp+10,    0x1.d9a9358a9273ep+10,    0x1.deb0502a50ea2p+10,
    0x1.e14cabf568e44p+10,    0x1.f023df76de0bap+10,    0x1.f05a31bc2536p+10,
    0x1.f061d6b07e764p+10,    0x1.f1d56d1cae41bp+10,    0x1.f34b25c623c64p+10,
    0x1.f4eab88d6536p+10,    0x1.fab0bb83843e7p+10,    0x1.fc8bf642f9e7ap+10,
    0x1.01cb473a971d3p+11,    0x1.028a788716b83p+11,    0x1.0508992587d9cp+11,
    0x1.05507d5b2bc5cp+11,    0x1.06bb63c2554f4p+11,    0x1.0df009d3df89bp+11,
    0x1.0e2554725c758p+11,    0x1.0f5038f6e03c8p+11,    0x1.0ff173714b265p+11,
    0x1.1025f84966b3ap+11,    0x1.11179776b480cp+11,    0x1.1191993869747p+11,
    0x1.11921419b1229p+11,    0x1.1288e9f3629bcp+11,    0x1.134f1a3e8e524p+11,
    0x1.1391474ce4566p+11,    0x1.14466af987799p+11,    0x1.1590f5615f385p+11,
    0x1.16a866e0f4058p+11,    0x1.17f36c2a13725p+11,    0x1.1866dda9a83f8p+11,
    0x1.1c9394f40efaep+11,    0x1.1ca9b93af7a9dp+11,    0x1.29aa61c4eb6d1p+11,
    0x1.29dcded605efap+11,    0x1.321e8277c185fp+11,    0x1.322c23d18d095p+11,
    0x1.3241f7c83ef5dp+11,    0x1.32c4c72dad18p+11,    0x1.33283f6d47e04p+11,
    0x1.34605d9a926cp+11,    0x1.38f56ebec6698p+11,    0x1.397ccfe6d0104p+11,
    0x1.3a016fe0df97cp+11,    0x1.3a95b87bac348p+11,    0x1.3b7c7dfb4af23p+11,
    0x1.3b9a8d771855cp+11,    0x1.3b9d948275f44p+11,    0x1.3cdcd2c8aac12p+11,
    0x1.3e0051288dad8p+11,    0x1.3e31b16a16e38p+11,    0x1.3e99fa399911bp+11,
    0x1.3efd976450a52p+11,    0x1.3fcb49e1974f9p+11,    0x1.3fdc16ae641dcp+11,
    0x1.4261f2f34e2f4p+11,    0x1.42a9253ba55b6p+11,    0x1.43fc064c16496p+11,
    0x1.449d7ba23068cp+11,    0x1.44af0b1320561p+11,    0x1.44c9e9d74b3f6p+11,
    0x1.4508524359d8ap+11,    0x1.474aa847726ccp+11,};

TEST(SimGolden, CutThroughClusterMajor) {
  CheckOrRegen({"cut-through / cluster-major / deterministic",
                Icn2SlotPolicy::kClusterMajor, CondisMode::kCutThrough,
                SimConfig::AscentPolicy::kDeterministic, 7, 250,
                kCutThroughGolden});
}

TEST(SimGolden, StoreForwardInterleaved) {
  CheckOrRegen({"store-forward / interleaved / deterministic",
                Icn2SlotPolicy::kInterleaved, CondisMode::kStoreForward,
                SimConfig::AscentPolicy::kDeterministic, 11, 250,
                kStoreForwardGolden});
}

TEST(SimGolden, RandomizedAscent) {
  CheckOrRegen({"cut-through / cluster-major / randomized ascent",
                Icn2SlotPolicy::kClusterMajor, CondisMode::kCutThrough,
                SimConfig::AscentPolicy::kRandomized, 13, 150,
                kRandomizedGolden});
}

TEST(SimGolden, Paper544StoreForwardBurstyHotSpot) {
  // preset:544 at 0.2 of its saturation rate: 4 flit times (one twice
  // another), so cross-lane ties, and waiter FIFOs at the hot node's
  // ejection links and the C/D taps.
  Workload workload = Workload::Hotspot(0.05, /*hot_node=*/100);
  workload.arrival = ArrivalProcess::Mmpp(4, 8);
  CheckOrRegen({"preset:544 / store-forward / mmpp:4,8 / 5% hot spot",
                Icn2SlotPolicy::kClusterMajor, CondisMode::kStoreForward,
                SimConfig::AscentPolicy::kDeterministic, 17, 200,
                kPaper544Golden, MakeSystem544, MessageFormat{32, 256},
                2.08e-4, workload});
}

}  // namespace
}  // namespace coc
