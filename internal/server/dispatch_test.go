package server

import (
	"net/http"
	"strings"
	"testing"

	"xbar/internal/core"
)

// asymSpec is a single-rate Poisson point at moderate utilization
// (u ~ 0.4), where the expansion's bound is comfortably inside the
// default tolerance by n ~ 2048.
func asymSpec(n int) SwitchSpec {
	return SwitchSpec{
		N1: n, N2: n,
		Classes: []ClassSpec{{Name: "bulk", A: 1, Alpha: 1.12, Mu: 1}},
	}
}

// TestDispatchBlocking covers the /v1/blocking dispatch contract: the
// asymptotic tier answers beyond the exact limit, the 422 cases, and
// the legacy path staying byte-compatible.
func TestDispatchBlocking(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{MaxDim: 64})

	// Asymptotic-only size under auto: 200 from the asymptotic tier,
	// with the bound in every class row.
	var resp BlockingResponse
	code := postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Dispatch string `json:"dispatch"`
	}{asymSpec(4096), "auto"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("auto at 4096: status %d", code)
	}
	if resp.Tier != core.TierAsymptotic || resp.Method != "asymptotic" {
		t.Errorf("tier %q method %q, want asymptotic", resp.Tier, resp.Method)
	}
	if b := resp.Classes[0].ErrorBound; !(b > 0 && b <= core.DefaultTolerance) {
		t.Errorf("error bound %v outside (0, %v]", b, core.DefaultTolerance)
	}
	if !(resp.Classes[0].Blocking > 0 && resp.Classes[0].Blocking < 1) {
		t.Errorf("blocking %v implausible", resp.Classes[0].Blocking)
	}

	// The same size with dispatch=exact is the documented 422.
	var apiErr struct {
		Error string `json:"error"`
	}
	code = postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Dispatch string `json:"dispatch"`
	}{asymSpec(4096), "exact"}, &apiErr)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("exact at 4096: status %d, want 422 (%s)", code, apiErr.Error)
	}

	// Auto with a tolerance the bound cannot meet at an exact-capable
	// size falls back to the exact tier.
	var exactResp BlockingResponse
	code = postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Dispatch  string  `json:"dispatch"`
		Tolerance float64 `json:"tolerance"`
	}{asymSpec(64), "auto", 1e-9}, &exactResp)
	if code != http.StatusOK || exactResp.Tier != core.TierExact {
		t.Errorf("tight tolerance at 64: status %d tier %q, want 200 exact", code, exactResp.Tier)
	}
	if exactResp.Classes[0].ErrorBound != 0 { //lint:allow floatcmp omitted JSON field decodes as exact zero
		t.Errorf("exact answer carries error bound %v", exactResp.Classes[0].ErrorBound)
	}

	// Auto at an asymptotic-only size with an unmeetable tolerance:
	// 422, not a silent loose answer.
	code = postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Dispatch  string  `json:"dispatch"`
		Tolerance float64 `json:"tolerance"`
	}{asymSpec(4096), "auto", 1e-9}, &apiErr)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("unmeetable tolerance at 4096: status %d, want 422", code)
	}

	// Forced asymptotic ignores the tolerance and answers anyway.
	code = postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Dispatch  string  `json:"dispatch"`
		Tolerance float64 `json:"tolerance"`
	}{asymSpec(4096), "asymptotic", 1e-9}, &resp)
	if code != http.StatusOK || resp.Tier != core.TierAsymptotic {
		t.Errorf("forced asymptotic: status %d tier %q", code, resp.Tier)
	}

	// Legacy contract: no dispatch field, oversize stays a 400 and an
	// in-range answer carries no tier.
	code = postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: asymSpec(4096)}, &apiErr)
	if code != http.StatusBadRequest {
		t.Errorf("no dispatch at 4096: status %d, want 400", code)
	}
	var legacyResp BlockingResponse
	code = postJSON(t, ts, "/v1/blocking", BlockingRequest{SwitchSpec: asymSpec(32)}, &legacyResp)
	if code != http.StatusOK || legacyResp.Tier != "" {
		t.Errorf("legacy request: status %d tier %q, want 200 with no tier", code, legacyResp.Tier)
	}

	// Tolerance without a policy is rejected.
	code = postJSON(t, ts, "/v1/blocking", struct {
		SwitchSpec
		Tolerance float64 `json:"tolerance"`
	}{asymSpec(32), 0.1}, &apiErr)
	if code != http.StatusBadRequest {
		t.Errorf("tolerance without dispatch: status %d, want 400", code)
	}
}

// TestDispatchSweep pins the per-point tier split: small points exact
// off one (small) lattice, large points asymptotic, in one request.
func TestDispatchSweep(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{MaxDim: 64})
	var resp SweepResponse
	code := postJSON(t, ts, "/v1/sweep", struct {
		SwitchSpec
		Dispatch string       `json:"dispatch"`
		Points   []SweepPoint `json:"points"`
	}{asymSpec(4096), "auto", []SweepPoint{{N1: 32, N2: 32}, {N1: 4096, N2: 4096}}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Results[0].Tier != core.TierExact || resp.Results[1].Tier != core.TierAsymptotic {
		t.Errorf("tiers %q/%q, want exact/asymptotic", resp.Results[0].Tier, resp.Results[1].Tier)
	}
	if resp.Results[0].ErrorBound != nil {
		t.Errorf("exact point carries bounds %v", resp.Results[0].ErrorBound)
	}
	if len(resp.Results[1].ErrorBound) != 1 || !(resp.Results[1].ErrorBound[0] > 0) {
		t.Errorf("asymptotic point bounds %v", resp.Results[1].ErrorBound)
	}
	// Blocking should increase from the 32-port sub-switch to the
	// 4096-port one at fixed per-route load (more competing routes).
	if !(resp.Results[1].Blocking[0] > resp.Results[0].Blocking[0]) {
		t.Errorf("blocking did not grow with size: %v vs %v", resp.Results[0].Blocking, resp.Results[1].Blocking)
	}

	// A point no tier can serve within the tolerance is a 422 that
	// names the point.
	var apiErr struct {
		Error string `json:"error"`
	}
	code = postJSON(t, ts, "/v1/sweep", struct {
		SwitchSpec
		Dispatch  string       `json:"dispatch"`
		Tolerance float64      `json:"tolerance"`
		Points    []SweepPoint `json:"points"`
	}{asymSpec(4096), "auto", 1e-12, []SweepPoint{{N1: 32, N2: 32}, {N1: 2000, N2: 2000}}}, &apiErr)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("unmeetable tolerance: status %d, want 422 (%s)", code, apiErr.Error)
	}
	if !strings.HasPrefix(apiErr.Error, "sweep point 2000x2000: ") {
		t.Errorf("422 message %q does not name the point", apiErr.Error)
	}
}

// TestDispatchGrid pins the grid planner's dispatch split and the
// response accounting.
func TestDispatchGrid(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{MaxDim: 64})
	var resp GridResponse
	code := postJSON(t, ts, "/v1/grid", struct {
		SwitchSpec
		Dispatch string      `json:"dispatch"`
		Points   []GridPoint `json:"points"`
	}{asymSpec(32), "auto", []GridPoint{
		{},                   // base 32x32: exact
		{N1: 4096, N2: 4096}, // asymptotic
		{N1: 48, N2: 48},     // exact
		{N1: 8192, N2: 8192}, // asymptotic
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Asymptotic != 2 {
		t.Errorf("asymptotic count %d, want 2", resp.Asymptotic)
	}
	wantTier := []string{core.TierExact, core.TierAsymptotic, core.TierExact, core.TierAsymptotic}
	for i, r := range resp.Results {
		if r.Tier != wantTier[i] {
			t.Errorf("point %d: tier %q, want %q", i, r.Tier, wantTier[i])
		}
	}
}

// TestDispatchRevenueAdmission covers the asymptotic revenue and
// admission paths at a size no lattice could serve.
func TestDispatchRevenueAdmission(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{MaxDim: 64})
	spec := asymSpec(4096)
	var rev RevenueResponse
	code := postJSON(t, ts, "/v1/revenue", struct {
		SwitchSpec
		Dispatch string    `json:"dispatch"`
		Weights  []float64 `json:"weights"`
	}{spec, "auto", []float64{1}}, &rev)
	if code != http.StatusOK {
		t.Fatalf("revenue: status %d", code)
	}
	if rev.Tier != core.TierAsymptotic || !(rev.W > 0) {
		t.Errorf("revenue tier %q W %v", rev.Tier, rev.W)
	}
	if c := rev.Classes[0]; !(c.ShadowCost >= 0) || !(c.ErrorBound > 0) {
		t.Errorf("class revenue %+v implausible", c)
	}

	var adm AdmissionResponse
	code = postJSON(t, ts, "/v1/admission", struct {
		SwitchSpec
		Dispatch string    `json:"dispatch"`
		Class    int       `json:"class"`
		Weights  []float64 `json:"weights"`
	}{spec, "auto", 0, []float64{1}}, &adm)
	if code != http.StatusOK {
		t.Fatalf("admission: status %d", code)
	}
	if adm.Tier != core.TierAsymptotic || adm.ShadowCost == nil {
		t.Errorf("admission tier %q shadow %v", adm.Tier, adm.ShadowCost)
	}
}
