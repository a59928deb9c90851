// Microbenchmarks of the from-scratch cryptographic substrate.
//
// Not a paper table, but the substrate every reproduced number sits on:
// these throughputs explain where the simulation's absolute latencies come
// from (and document the software-vs-hardware-crypto gap called out in
// EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <array>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "crypto/sha2.hpp"

namespace {

using namespace revelio;
using namespace revelio::crypto;

Bytes make_data(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

// 16 equal-length messages per call, one full group of sha256_many's lane
// core (per message on a host without AVX-512): compare with
// BM_Sha256/4096 for dm-verity's block sweep.
void BM_Sha256Many(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  const Bytes data = make_data(16 * len);
  std::array<Digest32, 16> out;
  for (auto _ : state) {
    sha256_many(data, len, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 16 * state.range(0));
}
BENCHMARK(BM_Sha256Many)->Arg(4096);

void BM_Sha384(benchmark::State& state) {
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sha384(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha384)->Arg(4096)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = make_data(32);
  const Bytes data = make_data(4096);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HmacSha256);

void BM_AesXtsSector(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench")));
  const AesXts xts(drbg.generate(64));
  Bytes sector = make_data(4096);
  std::uint64_t i = 0;
  for (auto _ : state) {
    xts.encrypt_sector(i++, sector);
    benchmark::DoNotOptimize(sector.data());
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesXtsSector);

void BM_AeadSeal(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-aead")));
  const AeadCtrHmac aead(drbg.generate(64));
  const Bytes nonce = drbg.generate(16);
  const Bytes payload = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.seal(nonce, {}, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(256)->Arg(16384);

void BM_EcdsaSign(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-sign")));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(make_data(100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_sign(curve, kp.d, hash.view()));
  }
}
void BM_EcdsaVerify(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-verify")));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(make_data(100));
  const auto sig = ecdsa_sign(curve, kp.d, hash.view());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_verify(curve, kp.q, hash.view(), sig));
  }
}

void BM_EcdsaVerifyBatch(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-verify-batch")));
  const auto n = static_cast<std::size_t>(state.range(0));
  // A handful of signer keys cycling through the batch — the gateway
  // shape, where many sessions verify against a few well-known VCEKs.
  std::vector<EcKeyPair> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(ec_generate(curve, drbg));
  for (const auto& kp : keys) curve.pin_verify_tables(kp.q);
  std::vector<EcdsaBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    const EcKeyPair& kp = keys[i % keys.size()];
    const auto hash = sha384(make_data(100 + i));
    items[i].pub = kp.q;
    append(items[i].msg_hash, hash.view());
    items[i].sig = ecdsa_sign(curve, kp.d, hash.view());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_verify_batch(curve, items));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// --- field arithmetic: the bottom row of the cost ledger ----------------

void BM_FieldMul(benchmark::State& state, const Curve& curve) {
  // One Montgomery multiplication in the curve's base field (4 limbs on
  // P-256, 6 on P-384), chained so each call waits on the previous one.
  const MontCtx& fp = curve.field();
  HmacDrbg drbg(to_bytes(std::string_view("bench-field-mul")));
  U384 acc = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  const U384 b = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  for (auto _ : state) {
    acc = fp.mul(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}

void BM_FieldSqr(benchmark::State& state, const Curve& curve) {
  // One Montgomery squaring (five of the eight products in a Jacobian
  // doubling), chained like BM_FieldMul.
  const MontCtx& fp = curve.field();
  HmacDrbg drbg(to_bytes(std::string_view("bench-field-sqr")));
  U384 acc = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  for (auto _ : state) {
    acc = fp.sqr(acc);
    benchmark::DoNotOptimize(acc);
  }
}

void BM_FieldAdd(benchmark::State& state, const Curve& curve) {
  // One modular addition (a Jacobian doubling runs twelve additions or
  // subtractions), chained like BM_FieldMul.
  const MontCtx& fp = curve.field();
  HmacDrbg drbg(to_bytes(std::string_view("bench-field-add")));
  U384 acc = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  const U384 b = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  for (auto _ : state) {
    acc = fp.add(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}

void BM_FieldSub(benchmark::State& state, const Curve& curve) {
  // One modular subtraction, chained like BM_FieldMul.
  const MontCtx& fp = curve.field();
  HmacDrbg drbg(to_bytes(std::string_view("bench-field-sub")));
  U384 acc = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  const U384 b = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  for (auto _ : state) {
    acc = fp.sub(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}

void BM_FieldInv(benchmark::State& state, const Curve& curve) {
  // One safegcd inversion (the cost inside every to_affine), chained.
  const MontCtx& fp = curve.field();
  HmacDrbg drbg(to_bytes(std::string_view("bench-field-inv")));
  U384 acc = fp.to_mont(U384::from_bytes_be(drbg.generate(48)));
  for (auto _ : state) {
    acc = fp.inv(acc);
    benchmark::DoNotOptimize(acc);
  }
}

// --- scalar-multiplication paths (the fast paths vs the naive ladder) ----

void BM_ScalarMultNaive(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-naive")));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const U384 k = U384::from_bytes_be(drbg.generate(48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.scalar_mult_naive(k, kp.q));
  }
}

void BM_ScalarMultWnaf(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-wnaf")));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const U384 k = U384::from_bytes_be(drbg.generate(48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.scalar_mult(k, kp.q));
  }
}

void BM_ScalarMultFixedBase(benchmark::State& state, const Curve& curve) {
  HmacDrbg drbg(to_bytes(std::string_view("bench-fixed-base")));
  const U384 k = U384::from_bytes_be(drbg.generate(48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.scalar_mult_base(k));
  }
}

void BM_CurveSetup(benchmark::State& state, const CurveParams& params) {
  // The one-off per-process cost: Montgomery constants plus the generator's
  // fixed-base table.
  for (auto _ : state) {
    const Curve curve(params);
    benchmark::DoNotOptimize(&curve);
  }
}

void BM_DoubleScalarMultCached(benchmark::State& state, const Curve& curve) {
  // Repeated same-key verification: after the first iteration the per-key
  // Strauss-Shamir tables come from the LRU cache — the ECDSA verify shape.
  HmacDrbg drbg(to_bytes(std::string_view("bench-double-scalar")));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const U384 u1 = U384::from_bytes_be(drbg.generate(48));
  const U384 u2 = U384::from_bytes_be(drbg.generate(48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.double_scalar_mult_base(u1, u2, kp.q));
  }
}

void BM_Pbkdf2_1000(benchmark::State& state) {
  const Bytes password = make_data(32);
  const Bytes salt = make_data(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbkdf2_sha256(password, salt, 1000, 64));
  }
}
BENCHMARK(BM_Pbkdf2_1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("BM_EcdsaSign/P256", BM_EcdsaSign,
                               std::cref(revelio::crypto::p256()));
  benchmark::RegisterBenchmark("BM_EcdsaSign/P384", BM_EcdsaSign,
                               std::cref(revelio::crypto::p384()));
  benchmark::RegisterBenchmark("BM_EcdsaVerify/P256", BM_EcdsaVerify,
                               std::cref(revelio::crypto::p256()));
  benchmark::RegisterBenchmark("BM_EcdsaVerify/P384", BM_EcdsaVerify,
                               std::cref(revelio::crypto::p384()));
  benchmark::RegisterBenchmark("BM_EcdsaVerifyBatch/P384",
                               BM_EcdsaVerifyBatch,
                               std::cref(revelio::crypto::p384()))
      ->Arg(8)
      ->Arg(64)
      ->Arg(512);
  benchmark::RegisterBenchmark("BM_CurveSetup/P256", BM_CurveSetup,
                               std::cref(revelio::crypto::p256_params()))
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_CurveSetup/P384", BM_CurveSetup,
                               std::cref(revelio::crypto::p384_params()))
      ->Unit(benchmark::kMillisecond);
  for (const auto* curve : {&revelio::crypto::p256(),
                            &revelio::crypto::p384()}) {
    const std::string name = curve->params().name == "P-256" ? "P256" : "P384";
    benchmark::RegisterBenchmark(("BM_FieldMul/" + name).c_str(), BM_FieldMul,
                                 std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_FieldSqr/" + name).c_str(), BM_FieldSqr,
                                 std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_FieldAdd/" + name).c_str(), BM_FieldAdd,
                                 std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_FieldSub/" + name).c_str(), BM_FieldSub,
                                 std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_FieldInv/" + name).c_str(), BM_FieldInv,
                                 std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_ScalarMultNaive/" + name).c_str(),
                                 BM_ScalarMultNaive, std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_ScalarMultWnaf/" + name).c_str(),
                                 BM_ScalarMultWnaf, std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_ScalarMultFixedBase/" + name).c_str(),
                                 BM_ScalarMultFixedBase, std::cref(*curve));
    benchmark::RegisterBenchmark(("BM_DoubleScalarMultCached/" + name).c_str(),
                                 BM_DoubleScalarMultCached, std::cref(*curve));
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
