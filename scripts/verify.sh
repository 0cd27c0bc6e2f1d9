#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the sanitizer
# smoke suites in separate build trees. This is what CI (and a human
# before merging) should run; tier-1 alone is the merge gate, the
# sanitizer passes catch the data-race / memory-hazard classes that
# plain test runs cannot.
#
#   scripts/verify.sh            # tier-1 + int8 smoke + tsan/asan smoke
#   scripts/verify.sh --tier1    # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
TIER1_ONLY=0
[[ "${1:-}" == "--tier1" ]] && TIER1_ONLY=1

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== int8 smoke: quantization conformance suite =="
ctest --test-dir build --output-on-failure -j "${JOBS}" -L int8_smoke

echo "== net smoke: THL1 protocol + loopback end-to-end suite =="
# Framing round-trips, split-point reassembly, hostile-frame rejection,
# and the socket-path ≡ in-process bitwise pin (tests/net).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L net_smoke

echo "== prepost smoke: pre/post fast-path parity suite =="
# Letterbox bitwise pin (scalar family), fused letterbox-quantize byte
# contract, raw-decode and fast-NMS exact-equivalence pins, and the
# Detect stability pin across THALI_NO_FASTPRE (tests/prepost).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L prepost_smoke

echo "== int8 resolution + chained-edge gate: calibrated yolov4-thali =="
# Plan resolution on yolov4-thali: before calibration no conv may
# resolve to an int8 algorithm (the 25 candidates run fp32); after
# calibration + replan all 25 candidates must. Then the end-to-end
# THALI_INT8=1 forward on the fused plan fails if the compiled plan
# reports zero chained edges, fewer than 49 quantized layers, or a cold
# (fp32) network input.
THALI_INT8=1 ./build/tests/int8/int8_test \
  --gtest_filter='Int8Test.PlanSelectsInt8OnlyForEligibleUnpinnedConvs:Int8Test.ReplanAfterCalibrationChainsMajorityOfThali'

if [[ "${TIER1_ONLY}" == "1" ]]; then
  echo "verify: tier-1 PASS (sanitizer suites skipped)"
  exit 0
fi

echo "== tsan smoke: threading-heavy tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DTHALI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L tsan_smoke

echo "== asan smoke: fused-plan / kernel-edge tests under ASan+UBSan =="
cmake -B build-asan -S . -DTHALI_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L asan_smoke

echo "verify: ALL PASS (tier-1 + tsan_smoke + asan_smoke)"
