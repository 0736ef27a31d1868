// Tests for the public API layer (api/): AppRegistry completeness —
// every app source file in src/slfe/apps/ must have registered a
// descriptor, and the --list-apps rendering must match the checked-in
// docs/APPS.txt golden — plus the Session facade: every declared
// (app, engine) pair actually runs through Session::Run on a small graph,
// guided and unguided results agree per pair, requirement violations and
// unknown names reject with registry-derived messages, and repeated runs
// share the session's guidance cache.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "slfe/api/app_registry.h"
#include "slfe/api/session.h"
#include "slfe/graph/generators.h"

namespace slfe::api {
namespace {

Graph Rmat(VertexId n, EdgeId m, uint64_t seed, bool weighted = true) {
  RmatOptions opt;
  opt.num_vertices = n;
  opt.num_edges = m;
  opt.weighted = weighted;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Deduplicate();
  return Graph::FromEdges(e);
}

/// Guided-vs-unguided agreement bar per app, aligned with
/// property_sweep_test: exact for the min/max and DP apps, the
/// finish-early freeze bounds for the arithmetic ones.
double ToleranceFor(const std::string& app) {
  if (app == "pr" || app == "tr") return 5e-3;
  if (app == "spmv") return 1e-3;
  if (app == "heat" || app == "bp") return 1e-2;
  return 0.0;
}

// ----------------------------------------------------------- AppRegistry

TEST(AppRegistryTest, EngineNamesRoundTrip) {
  for (Engine engine : {Engine::kDist, Engine::kShm, Engine::kGas,
                        Engine::kOoc}) {
    Result<Engine> parsed = ParseEngine(EngineName(engine));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), engine);
  }
  Status unknown = ParseEngine("quantum").status();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("dist"), std::string::npos)
      << "error should list the valid engines: " << unknown.ToString();
}

// THE completeness bar: every app translation unit in src/slfe/apps/ must
// have self-registered. A new app file without a registration block (or a
// registration dropped by a build-system change) fails here.
TEST(AppRegistryTest, EveryAppSourceFileIsRegistered) {
  // File stem -> registered app name where they differ.
  const std::map<std::string, std::string> renamed = {
      {"approx_diameter", "diameter"},
      {"belief_propagation", "bp"},
      {"heat_simulation", "heat"},
      {"triangle_count", "tc"},
  };
  // Ground-truth implementations, not a runnable app.
  const std::set<std::string> excluded = {"reference", "app_common"};

  std::filesystem::path apps_dir =
      std::filesystem::path(SLFE_SOURCE_DIR) / "src" / "slfe" / "apps";
  ASSERT_TRUE(std::filesystem::is_directory(apps_dir))
      << "apps dir not found: " << apps_dir;

  const AppRegistry& registry = AppRegistry::Global();
  size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(apps_dir)) {
    if (entry.path().extension() != ".cc") continue;
    std::string stem = entry.path().stem().string();
    if (excluded.count(stem) > 0) continue;
    auto it = renamed.find(stem);
    std::string app = it == renamed.end() ? stem : it->second;
    const AppDescriptor* descriptor = registry.Find(app);
    ASSERT_NE(descriptor, nullptr)
        << entry.path().filename() << " has no registered app '" << app
        << "' — add an AppRegistrar block to the file";
    EXPECT_FALSE(descriptor->runners.empty()) << app;
    EXPECT_FALSE(descriptor->summary.empty()) << app;
    ++checked;
  }
  EXPECT_GE(checked, 13u);
  EXPECT_EQ(checked, registry.Apps().size())
      << "registry contains apps with no source file in src/slfe/apps/";
}

// The --list-apps rendering both CLIs print is pinned to docs/APPS.txt
// (CI diffs the binary's output against the same file): a registered-but-
// unlisted app, or a stale listing, fails here and in CI.
TEST(AppRegistryTest, ListAppsMatchesCheckedInGolden) {
  std::filesystem::path golden_path =
      std::filesystem::path(SLFE_SOURCE_DIR) / "docs" / "APPS.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden listing: " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(AppRegistry::Global().ListApps(), golden.str())
      << "docs/APPS.txt is stale — regenerate with "
         "`slfe_cli --list-apps > docs/APPS.txt`";
}

TEST(AppRegistryTest, DuplicateAndEmptyRegistrationsRejected) {
  AppDescriptor nameless;
  nameless.runners[Engine::kDist] = [](const RunContext&) {
    return AppOutcome{};
  };
  EXPECT_EQ(AppRegistry::Global().Register(nameless).code(),
            StatusCode::kInvalidArgument);

  AppDescriptor runnerless;
  runnerless.name = "runnerless";
  EXPECT_EQ(AppRegistry::Global().Register(runnerless).code(),
            StatusCode::kInvalidArgument);

  AppDescriptor duplicate;
  duplicate.name = "sssp";
  duplicate.runners[Engine::kDist] = [](const RunContext&) {
    return AppOutcome{};
  };
  EXPECT_EQ(AppRegistry::Global().Register(duplicate).code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- Session

// Every (app, engine) pair the descriptors declare runs through
// Session::Run — including the pairs no surface exposed before this API —
// and the guided run agrees with the unguided baseline per pair. RR
// applies on the dist engine only: the shm, gas and ooc comparators run
// unguided whatever the request says.
TEST(SessionTest, EveryDeclaredPairRunsAndGuidedAgreesWithBaseline) {
  Session session;
  ASSERT_TRUE(session.AddGraph("g", Rmat(300, 2400, 21)).ok());

  size_t pairs = 0;
  for (const AppDescriptor* app : AppRegistry::Global().Apps()) {
    for (Engine engine : app->engines()) {
      SCOPED_TRACE(std::string(EngineName(engine)) + "/" + app->name);
      AppRequest request;
      request.app = app->name;
      request.engine = EngineName(engine);
      request.graph = "g";
      request.max_iters = 30;

      request.enable_rr = false;
      AppOutcome baseline = session.Run(request);
      ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
      EXPECT_GT(baseline.info.supersteps, 0u);

      request.enable_rr = true;
      AppOutcome guided = session.Run(request);
      ASSERT_TRUE(guided.status.ok()) << guided.status.ToString();
      if (engine != Engine::kDist) {
        EXPECT_FALSE(guided.info.guidance_acquired);
      }

      ASSERT_EQ(guided.values.size(), baseline.values.size());
      double tolerance = ToleranceFor(app->name);
      for (size_t v = 0; v < baseline.values.size(); ++v) {
        // Exact match first: also covers the sentinel values ASSERT_NEAR
        // cannot difference (inf distances, inf spmv overflow).
        if (guided.values[v] == baseline.values[v]) continue;
        ASSERT_NEAR(guided.values[v], baseline.values[v], tolerance)
            << "v=" << v;
      }
      if (baseline.values.empty()) {
        // Scalar apps (tc/mst/diameter): the summary must agree exactly.
        EXPECT_EQ(guided.summary, baseline.summary);
      }
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 20u);
}

// The ISSUE's acceptance pairs, directly on the facade the CLI wraps:
// gas:sssp (slfe_cli --engine=gas) and ooc:pr both run and agree with
// their dist counterparts on the summary scalar.
TEST(SessionTest, PreviouslyUnreachablePairsMatchDistResults) {
  Session session;
  ASSERT_TRUE(session.AddGraph("g", Rmat(400, 3200, 33)).ok());

  AppRequest request;
  request.graph = "g";
  request.app = "sssp";
  request.engine = "dist";
  AppOutcome dist_sssp = session.Run(request);
  request.engine = "gas";
  AppOutcome gas_sssp = session.Run(request);
  ASSERT_TRUE(dist_sssp.status.ok());
  ASSERT_TRUE(gas_sssp.status.ok()) << gas_sssp.status.ToString();
  // Exact fixpoint: identical distances vertex by vertex.
  ASSERT_EQ(gas_sssp.values.size(), dist_sssp.values.size());
  for (size_t v = 0; v < dist_sssp.values.size(); ++v) {
    ASSERT_EQ(gas_sssp.values[v], dist_sssp.values[v]) << "v=" << v;
  }

  request.app = "pr";
  request.engine = "ooc";
  request.max_iters = 20;
  AppOutcome ooc_pr = session.Run(request);
  ASSERT_TRUE(ooc_pr.status.ok()) << ooc_pr.status.ToString();
  EXPECT_EQ(ooc_pr.values.size(), dist_sssp.values.size());
  EXPECT_GT(ooc_pr.info.supersteps, 0u);
}

TEST(SessionTest, ValidationErrorsAreRegistryDerived) {
  Session session;
  ASSERT_TRUE(session.AddGraph("g", Rmat(200, 1500, 40)).ok());

  AppRequest request;
  request.graph = "g";
  request.app = "nosuchapp";
  Status unknown_app = session.Validate(request);
  EXPECT_EQ(unknown_app.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_app.message().find("sssp"), std::string::npos)
      << "should list registered apps: " << unknown_app.ToString();

  request.app = "sssp";
  request.engine = "quantum";
  EXPECT_EQ(session.Validate(request).code(), StatusCode::kInvalidArgument);

  request.engine = "ooc";  // declared for pr/cc, not sssp
  Status undeclared = session.Validate(request);
  EXPECT_EQ(undeclared.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(undeclared.message().find("dist"), std::string::npos)
      << "should cite the app's declared engines: " << undeclared.ToString();

  request.engine = "dist";
  request.graph = "missing";
  EXPECT_EQ(session.Validate(request).code(), StatusCode::kNotFound);

  request.graph = "g";
  request.root = 1u << 30;  // out of range for a single-source app
  EXPECT_EQ(session.Validate(request).code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, GraphRequirementsEnforcedPerSessionPolicy) {
  AppRequest sssp_request;
  sssp_request.app = "sssp";
  sssp_request.graph = "unweighted";

  {  // Strict sessions reject needs_weights apps on unit-weight graphs.
    SessionOptions strict;
    strict.strict_weights = true;
    Session session(strict);
    ASSERT_TRUE(
        session.AddGraph("unweighted", Rmat(200, 1500, 41, false)).ok());
    Status rejected = session.Validate(sssp_request);
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.message().find("weight"), std::string::npos)
        << rejected.ToString();
  }
  {  // Permissive sessions (the CLI) run them — sssp becomes hop counts.
    Session session;
    ASSERT_TRUE(
        session.AddGraph("unweighted", Rmat(200, 1500, 41, false)).ok());
    EXPECT_TRUE(session.Run(sssp_request).status.ok());
  }
  {  // needs_symmetric without auto-symmetrize: reject; with (default):
     // the session derives the closure and cc runs.
    SessionOptions no_auto;
    no_auto.auto_symmetrize = false;
    Session strict_session(no_auto);
    ASSERT_TRUE(strict_session.AddGraph("g", Rmat(200, 1500, 42)).ok());
    AppRequest cc_request;
    cc_request.app = "cc";
    cc_request.graph = "g";
    Status rejected = strict_session.Validate(cc_request);
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.message().find("symmetric"), std::string::npos);

    Session session;
    ASSERT_TRUE(session.AddGraph("g", Rmat(200, 1500, 42)).ok());
    AppOutcome outcome = session.Run(cc_request);
    ASSERT_TRUE(outcome.status.ok());
    // ResolveGraph hands back the symmetrized variant (same |V|, more
    // directed edges), not the registered graph.
    auto resolved = session.ResolveGraph(cc_request);
    ASSERT_TRUE(resolved.ok());
    std::shared_ptr<const Graph> base = session.GetGraph("g");
    EXPECT_EQ(resolved.value()->num_vertices(), base->num_vertices());
    EXPECT_GT(resolved.value()->num_edges(), base->num_edges());
    // The variant is cached: resolving twice returns the same object.
    auto again = session.ResolveGraph(cc_request);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(resolved.value().get(), again.value().get());
  }
}

TEST(SessionTest, RepeatedGuidedRunsShareTheSessionProvider) {
  Session session;
  ASSERT_TRUE(session.AddGraph("g", Rmat(300, 2400, 50)).ok());
  AppRequest request;
  request.app = "sssp";
  request.graph = "g";
  request.enable_rr = true;

  AppOutcome first = session.Run(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(first.info.guidance_acquired);
  EXPECT_FALSE(first.info.guidance_cache_hit);

  AppOutcome second = session.Run(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.info.guidance_cache_hit)
      << "second run should ride the session's guidance cache";
  EXPECT_EQ(session.provider().stats().generations, 1u);

  // Duplicate graph names are rejected, like JobService::RegisterGraph.
  EXPECT_EQ(session.AddGraph("g", Rmat(100, 700, 51)).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace slfe::api
