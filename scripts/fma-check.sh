#!/bin/sh
# Fused multiply-add check. Go may fuse x*y + z into one multiply-add with a
# single rounding on architectures that have one (arm64, ppc64le, s390x,
# riscv64), and amd64 does not. The solver's incremental pricers must agree
# bit for bit with its canonical pricer (LoadState's Contrib with
# ServerContrib, the sweep screen's bounds with the exact prices). The demand
# sums are additions only — NewEvaluator stores each unit's demand already
# scaled — so the products left are the pricing's: a contribution's
# penaltyWeight*viol and the screen's exp bracket. Each one that meets an
# addition in objective.go, loadstate.go and coarse.go is written
# float64(x*y), which forbids fusing. This cross-compiles the
# package's test binary for arm64 from GOROOT — no network, no arm64 machine —
# disassembles it and fails on any fused instruction attributed to a line of
# those three files.
cd "$(dirname "$0")/.." || exit 1
GO=${GO:-go}
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
CGO_ENABLED=0 GOOS=linux GOARCH=arm64 "$GO" test -c -o "$tmp/core.test" ./internal/core || exit 1
"$GO" tool objdump "$tmp/core.test" >"$tmp/core.s" || exit 1
files='(objective|loadstate|coarse)\.go:[0-9]+'
if ! grep -qE "[[:space:]]$files[[:space:]]" "$tmp/core.s"; then
	echo "fma-check: the arm64 disassembly names no line of objective.go, loadstate.go or coarse.go" >&2
	exit 1
fi
if grep -E "[[:space:]]$files[[:space:]].*[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]" "$tmp/core.s"; then
	echo "fma-check: fused multiply-adds above; write each product float64(x*y)" >&2
	exit 1
fi
echo "fma-check: no fused multiply-add in objective.go, loadstate.go or coarse.go (arm64)"
