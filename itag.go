// Package itag is a Go implementation of iTag, the incentive-based tagging
// system of Lei, Yang, Mo, Maniu and Cheng (ICDE 2014), together with the
// simulation substrate needed to reproduce the paper's evaluation.
//
// iTag sits between resource providers and crowdsourcing marketplaces: a
// provider uploads resources with poor or missing tags, sets a budget of
// tagging tasks, and iTag allocates those tasks to taggers so that the
// overall tagging quality — defined on the stability of each resource's
// tag relative-frequency distribution, the cosine of that distribution now
// and a window of posts back — improves as much as possible.
//
// The package re-exports the system's public surface:
//
//   - Engine / EngineConfig: the Algorithm-1 allocation loop with live
//     monitoring, promote/stop controls and mid-run strategy switching.
//   - Service / ProjectSpec: the manager layer (projects, users, approvals,
//     persistence) that the HTTP server and CLIs sit on.
//   - Strategy constructors and ParseStrategy: FC, FP, MU, FP-MU, and the
//     baselines, plus the optimal allocators.
//   - World generation, tagger simulation, and crowdsourcing-platform
//     simulators for experimentation without a marketplace account.
//
// # Quick start
//
//	world, _ := itag.GenerateWorld(rand.New(rand.NewSource(1)), itag.WorldConfig{NumResources: 50})
//	pop, _ := itag.NewPopulation(rand.New(rand.NewSource(2)), itag.PopulationConfig{Size: 30})
//	sim := itag.NewSimulator(world)
//	platform, _ := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 3), 4)
//	engine, _ := itag.NewEngine(itag.EngineConfig{
//		Resources: world.Dataset.Resources,
//		Strategy:  itag.NewFPMU(),
//		Budget:    500,
//		Platform:  platform,
//	})
//	_ = engine.Run()
//	fmt.Println(engine.MeanStability())
//
// See examples/ for complete programs and docs/ARCHITECTURE.md for the
// system design and experiment index.
package itag

import (
	"math/rand"

	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/store"
	"itag/internal/strategy"
	"itag/internal/taggersim"
	"itag/internal/vocab"
)

// Core engine and service surface.
type (
	// Engine runs the Algorithm-1 allocation loop for one project.
	Engine = core.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = core.Config
	// Monitor is a run's telemetry (quality curves, events).
	Monitor = core.Monitor
	// ResourceStatus is a per-resource snapshot.
	ResourceStatus = core.ResourceStatus
	// Service composes the persistent managers (projects, users, posts).
	Service = core.Service
	// ProjectSpec describes a new project.
	ProjectSpec = core.ProjectSpec
	// ProjectInfo is a project row with live stats.
	ProjectInfo = core.ProjectInfo
	// Judge reviews completed posts (approval flow).
	Judge = core.Judge
	// PlanConfig parameterizes optimal-allocation gain estimation.
	PlanConfig = core.PlanConfig
)

// Strategy surface.
type (
	// Strategy selects which resources receive the next tasks.
	Strategy = strategy.Strategy
	// StrategyView is the snapshot strategies choose from.
	StrategyView = strategy.View
	// FreeChoice is the FC strategy.
	FreeChoice = strategy.FreeChoice
	// FewestPosts is the FP strategy.
	FewestPosts = strategy.FewestPosts
	// MostUnstable is the MU strategy.
	MostUnstable = strategy.MostUnstable
	// FPMU is the hybrid FP-MU strategy.
	FPMU = strategy.FPMU
)

// Data model surface.
type (
	// Resource is one taggable item.
	Resource = dataset.Resource
	// Post is one tagging operation.
	Post = dataset.Post
	// Dataset is resources plus a time-ordered trace.
	Dataset = dataset.Dataset
	// World bundles a dataset with its generated vocabulary.
	World = dataset.World
	// WorldConfig parameterizes world generation.
	WorldConfig = dataset.GeneratorConfig
)

// Simulation surface.
type (
	// Population is a set of simulated tagger profiles.
	Population = taggersim.Population
	// PopulationConfig parameterizes population generation.
	PopulationConfig = taggersim.PopulationConfig
	// TaggerProfile describes one simulated tagger.
	TaggerProfile = taggersim.Profile
	// Simulator produces posts from the behaviour model.
	Simulator = taggersim.Simulator
	// TraceConfig parameterizes free-choice trace generation.
	TraceConfig = taggersim.TraceConfig
	// Replayer serves held-out trace posts.
	Replayer = taggersim.Replayer
	// Platform is the crowdsourcing-marketplace abstraction.
	Platform = crowd.Platform
	// PlatformConfig parameterizes the marketplace simulator.
	PlatformConfig = crowd.SimConfig
)

// Quality surface.
type (
	// QualityConfig parameterizes the stability quality: the cosine of a
	// resource's rfd now and Window posts back.
	QualityConfig = quality.Config
	// QualityTracker maintains one resource's quality series (interned hot
	// path; see TagInterner).
	QualityTracker = quality.Tracker
	// TagInterner maps tag strings to dense IDs; share one across engines
	// (EngineConfig.Interner) so their trackers index a common vocabulary.
	TagInterner = vocab.Interner
)

// NewTagInterner returns an empty concurrency-safe tag interner.
func NewTagInterner() *TagInterner { return vocab.NewInterner() }

// Storage surface.
type (
	// Store is the storage contract the manager layer runs over; the one
	// backend is the WAL-backed DB (durable or in-memory).
	Store = store.Store
	// Catalog is the typed schema layer over Store.
	Catalog = store.Catalog
)

// NewEngine builds an allocation engine. See EngineConfig for knobs.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.New(cfg) }

// NewService builds the manager layer over a catalog.
func NewService(cat *Catalog, seed int64) *Service { return core.NewService(cat, seed) }

// OpenStore opens (or creates) a WAL-backed store at path.
func OpenStore(path string) (Store, error) { return store.Open(path, store.Options{}) }

// OpenMemoryStore returns a volatile in-memory store.
func OpenMemoryStore() Store { return store.OpenMemory() }

// NewCatalog wraps a store backend with the typed iTag schemas.
func NewCatalog(db Store) *Catalog { return store.NewCatalog(db) }

// ParseStrategy resolves a strategy spec such as "fp-mu:frac=0.5,budget=1000".
func ParseStrategy(spec string) (Strategy, error) { return strategy.Parse(spec) }

// NewFPMU returns the hybrid strategy with its default trigger.
func NewFPMU() *FPMU { return strategy.NewFPMU() }

// GenerateWorld builds a synthetic Delicious-like world.
func GenerateWorld(r *rand.Rand, cfg WorldConfig) (*World, error) { return dataset.Generate(r, cfg) }

// NewPopulation generates a simulated tagger population.
func NewPopulation(r *rand.Rand, cfg PopulationConfig) (*Population, error) {
	return taggersim.NewPopulation(r, cfg)
}

// NewSimulator builds a post simulator over a world.
func NewSimulator(world *World) *Simulator { return taggersim.NewSimulator(world) }

// NewReplayer groups held-out posts for trace replay.
func NewReplayer(eval []Post) *Replayer { return taggersim.NewReplayer(eval) }

// NewMTurkSim builds a marketplace simulator with MTurk-like defaults. Like
// every simulator it keeps its workers' review record and stops assigning a
// worker that fails the qualification rule (crowd.MinApprovalRate over at
// least crowd.MinReviews reviews).
func NewMTurkSim(workers []string, post crowd.PostFunc, seed int64) (Platform, error) {
	return crowd.NewMTurkSim(workers, post, seed)
}

// NewSocialSim builds a marketplace simulator with social-network defaults.
func NewSocialSim(workers []string, post crowd.PostFunc, seed int64) (Platform, error) {
	return crowd.NewSocialSim(workers, post, seed)
}

// NewPlatform builds a marketplace simulator from an explicit config.
func NewPlatform(cfg PlatformConfig) (Platform, error) { return crowd.NewSim(cfg) }

// GenerativeSource produces worker posts from the behaviour model.
func GenerativeSource(sim *Simulator, pop *Population, seed int64) crowd.PostFunc {
	return core.GenerativeSource(sim, pop, seed)
}

// ReplaySource produces worker posts from a trace replayer.
func ReplaySource(rp *Replayer) crowd.PostFunc { return core.ReplaySource(rp) }

// WorkerIDs lists a population's profile IDs for platform construction.
func WorkerIDs(pop *Population) []string { return core.WorkerIDs(pop) }

// PlanOptimal computes the optimal allocation via Monte-Carlo gain
// estimation and greedy exact allocation.
func PlanOptimal(sim *Simulator, resources []Resource, seedPosts map[string][][]string,
	budget int, cfg PlanConfig) ([]int, float64, error) {
	return core.PlanOptimal(sim, resources, seedPosts, budget, cfg)
}

// NewPlannedStrategy wraps a precomputed allocation as a Strategy.
func NewPlannedStrategy(name string, plan []int) Strategy { return strategy.NewPlanned(name, plan) }

// LatentOverlapJudge approves posts whose tags overlap the resource's
// latent distribution by at least minOverlap (simulated provider review).
func LatentOverlapJudge(world *World, minOverlap float64) Judge {
	return core.LatentOverlapJudge(world, minOverlap)
}
