package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestValidateMixSigma(t *testing.T) {
	base := TenantLoad{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}
	ok := base
	ok.PromptSigma, ok.GenSigma = 1.2, 0.8
	if err := ValidateMix([]TenantLoad{ok}); err != nil {
		t.Fatalf("sigma mix rejected: %v", err)
	}
	for _, tc := range []struct {
		mut  func(*TenantLoad)
		want string
	}{
		{func(t *TenantLoad) { t.PromptSigma = -1 }, "prompt sigma"},
		{func(t *TenantLoad) { t.PromptSigma = math.NaN() }, "prompt sigma"},
		{func(t *TenantLoad) { t.GenSigma = math.Inf(1) }, "generation sigma"},
	} {
		bad := base
		tc.mut(&bad)
		err := ValidateMix([]TenantLoad{bad})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want error containing %q, got %v", tc.want, err)
		}
	}
}

func TestParseMixSigmaRoundTrip(t *testing.T) {
	for _, tc := range []string{
		"chat:0.7:200:200,batch:0.3:2000:100",
		"chat:1:200~1.2:200",
		"chat:1:200~1.2:200~0.5",
		"a:1:200~1.5:200:120:sys,b:1:300:100~2:120:sys",
	} {
		mix, err := ParseMix(tc)
		if err != nil {
			t.Fatalf("parse %q: %v", tc, err)
		}
		got := FormatMix(mix)
		if got != tc {
			t.Errorf("format(parse(%q)) = %q", tc, got)
		}
		back, err := ParseMix(got)
		if err != nil || !reflect.DeepEqual(back, mix) {
			t.Errorf("round trip for %q: %v, %v", tc, back, err)
		}
	}
	for _, bad := range []string{
		"chat:1:200~x:200",
		"chat:1:200:200~",
		"chat:1:200~-1:200",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

func TestPromptGenBounds(t *testing.T) {
	flat := TenantLoad{PromptTokens: 100, GenTokens: 50}
	if lo, hi := flat.PromptBounds(); lo != 100 || hi != 100 {
		t.Errorf("flat prompt bounds [%d, %d]", lo, hi)
	}
	if lo, hi := flat.GenBounds(); lo != 50 || hi != 50 {
		t.Errorf("flat gen bounds [%d, %d]", lo, hi)
	}
	heavy := TenantLoad{PromptTokens: 100, GenTokens: 50, PromptSigma: 1, GenSigma: 1, PrefixTokens: 40}
	if lo, hi := heavy.PromptBounds(); lo != 41 || hi != 800 {
		t.Errorf("heavy prompt bounds [%d, %d]", lo, hi)
	}
	if lo, hi := heavy.GenBounds(); lo != 1 || hi != 400 {
		t.Errorf("heavy gen bounds [%d, %d]", lo, hi)
	}
}

func TestValidateTraceSessions(t *testing.T) {
	good := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 100, GenTokens: 10, Session: 1, Turn: 1}},
		{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 210, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 110, Session: 1, Turn: 2}},
		{Arrival: 2, Request: Request{Tenant: "a", PromptTokens: 320, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 220, Session: 1, Turn: 3}},
	}
	if err := ValidateTrace(good); err != nil {
		t.Fatalf("growing session prefix rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		evs  []TraceEvent
		want string
	}{
		{"negative session", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Session: -1}},
		}, "negative session"},
		{"turn without session", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Turn: 2}},
		}, "together"},
		{"session without turn", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Session: 2}},
		}, "together"},
		{"shrinking session prefix", []TraceEvent{
			{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "~s1", PrefixTokens: 200, Session: 1, Turn: 2}},
			{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "~s1", PrefixTokens: 100, Session: 1, Turn: 3}},
		}, "only grows"},
		{"non-session prefix drift", []TraceEvent{
			{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "sys", PrefixTokens: 100}},
			{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "sys", PrefixTokens: 200}},
		}, "one length"},
	} {
		err := ValidateTrace(tc.evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestParseTraceV3(t *testing.T) {
	in := "arrival,tenant,prompt,gen,prefix_id,prefix_tokens,session,turn\n" +
		"0,chat,100,10,,0,1,1\n" +
		"1,chat,210,10,~s1,110,1,2\n" +
		"1.5,batch,50,5,,0,,\n"
	got, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 10, Session: 1, Turn: 1}},
		{Arrival: 1, Request: Request{Tenant: "chat", PromptTokens: 210, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 110, Session: 1, Turn: 2}},
		{Arrival: 1.5, Request: Request{Tenant: "batch", PromptTokens: 50, GenTokens: 5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{
		"0,chat,100,10,,0,x,1\n",
		"0,chat,100,10,,0,1,y\n",
		"0,chat,100,10,,0,1\n", // 7 columns
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

// FormatTrace emits the narrowest schema that carries the data: v1 for
// plain traces, v2 with prefixes, v3 with sessions — and each round-trips.
func TestFormatTraceVersions(t *testing.T) {
	v1 := []TraceEvent{{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2}}}
	v2 := []TraceEvent{{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2,
		PrefixID: "sys", PrefixTokens: 4}}}
	v3 := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2, Session: 1, Turn: 1}},
		{Arrival: 3, Request: Request{Tenant: "a", PromptTokens: 22, GenTokens: 2,
			PrefixID: "~s1", PrefixTokens: 12, Session: 1, Turn: 2}},
	}
	for _, tc := range []struct {
		trace []TraceEvent
		cols  int
	}{{v1, 4}, {v2, 6}, {v3, 8}} {
		var b strings.Builder
		if err := FormatTrace(&b, tc.trace); err != nil {
			t.Fatal(err)
		}
		header := strings.SplitN(b.String(), "\n", 2)[0]
		if n := strings.Count(header, ",") + 1; n != tc.cols {
			t.Errorf("header %q has %d columns, want %d", header, n, tc.cols)
		}
		back, err := ParseTrace(strings.NewReader(b.String()))
		if err != nil || !reflect.DeepEqual(back, tc.trace) {
			t.Errorf("round trip: %v, %v", back, err)
		}
	}
}
