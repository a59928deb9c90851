// Tests for the Auditor, an extension layered on the paper's core: the
// delegated-verification workflow of D2/§3.4.7.
#include <gtest/gtest.h>

#include "imagebuild/builder.hpp"
#include "revelio/auditor.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::core {
namespace {

// --------------------------------------------------------------- auditor

struct AuditorFixture : ::testing::Test {
  AuditorFixture() {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    digest = registry.publish(base);
  }

  imagebuild::BuildInputs good_inputs() {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = digest;
    inputs.service_files["/opt/app"] = to_bytes(std::string_view("app-v1"));
    inputs.initrd.services = {{"app", "/opt/app", 10.0}};
    inputs.initrd.allowed_inbound_ports = {"443"};
    return inputs;
  }

  imagebuild::PackageRegistry registry;
  crypto::Digest32 digest;
};

TEST_F(AuditorFixture, CleanBuildPasses) {
  Auditor auditor(registry);
  const AuditReport report = auditor.audit(good_inputs());
  EXPECT_TRUE(report.reproducible);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.count(AuditFinding::Severity::kCritical), 0u);
}

TEST_F(AuditorFixture, MeasurementMatchesDeployment) {
  Auditor auditor(registry);
  const AuditReport report = auditor.audit(good_inputs());
  imagebuild::ImageBuilder builder(registry);
  const auto image = *builder.build(good_inputs());
  EXPECT_EQ(report.measurement,
            vm::Hypervisor::expected_measurement(
                image.kernel_blob, image.initrd_blob, image.cmdline));
}

TEST_F(AuditorFixture, UnpinnedBaseImageIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.base_image_digest.reset();
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.passed());
}

TEST_F(AuditorFixture, DisabledVerityIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.setup_verity = false;
  EXPECT_FALSE(auditor.audit(inputs).passed());
}

TEST_F(AuditorFixture, OpenSshPortIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.allowed_inbound_ports.push_back("22");
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.passed());
}

TEST_F(AuditorFixture, OpenFirewallIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.block_inbound_network = false;
  EXPECT_FALSE(auditor.audit(inputs).passed());
}

TEST_F(AuditorFixture, MissingCryptIsOnlyWarning) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.setup_crypt = false;
  const AuditReport report = auditor.audit(inputs);
  EXPECT_TRUE(report.passed());
  EXPECT_GE(report.count(AuditFinding::Severity::kWarning), 1u);
}

TEST_F(AuditorFixture, PublishOnlyOnPass) {
  Auditor auditor(registry);
  TrustedRegistry trusted;
  auto good = auditor.audit_and_publish(good_inputs(), "svc", trusted);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(trusted.is_acceptable("svc", *good));

  auto bad_inputs = good_inputs();
  bad_inputs.initrd.setup_verity = false;
  auto bad = auditor.audit_and_publish(bad_inputs, "svc", trusted);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "auditor.rejected");
}

TEST_F(AuditorFixture, UnknownBaseImageReportsBuildFailure) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  crypto::Digest32 bogus;
  bogus[0] = 0xff;
  inputs.base_image_digest = bogus;
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.reproducible);
  EXPECT_FALSE(report.passed());
}

}  // namespace
}  // namespace revelio::core
