package semantics

// This file encodes the semantic end-to-end QoS model of Chapter III as
// four ontologies: the QoS Core ontology (the upper model: properties,
// metrics, units, values), the Infrastructure QoS ontology (network and
// device qualities), the Service QoS ontology (performance, dependability,
// cost, security, transaction qualities of application services) and the
// User QoS ontology (requirements, preferences, perceived quality).
// Pervasive() merges all four into the shared model that users and
// providers in a pervasive environment map their vocabularies onto.

// Predicates used in ontology triples.
const (
	PredHasMetric    = "hasMetric"
	PredHasUnit      = "hasUnit"
	PredHasDirection = "hasDirection"
	PredMeasuredBy   = "measuredBy"
	PredAppliesTo    = "appliesTo"
	PredDependsOn    = "dependsOn"
)

// Core ontology concept IDs (QoS Core ontology, Fig. III.2).
const (
	QoSConcept        ConceptID = "QoS"
	QoSProperty       ConceptID = "QoSProperty"
	QoSMetric         ConceptID = "QoSMetric"
	QoSUnit           ConceptID = "QoSUnit"
	QoSValue          ConceptID = "QoSValue"
	QoSDirection      ConceptID = "QoSDirection"
	DirectionUpward   ConceptID = "UpwardDirection"   // higher is better
	DirectionDownward ConceptID = "DownwardDirection" // lower is better
	AdvertisedValue   ConceptID = "AdvertisedValue"
	MeasuredValue     ConceptID = "MeasuredValue"
	PredictedValue    ConceptID = "PredictedValue"
	MetricGauge       ConceptID = "GaugeMetric"
	MetricRate        ConceptID = "RateMetric"
	MetricProbability ConceptID = "ProbabilityMetric"
	MetricCounter     ConceptID = "CounterMetric"
	UnitMillisecond   ConceptID = "Millisecond"
	UnitSecond        ConceptID = "Second"
	UnitEuro          ConceptID = "Euro"
	UnitCent          ConceptID = "Cent"
	UnitPercent       ConceptID = "Percent"
	UnitRatio         ConceptID = "Ratio"
	UnitKbps          ConceptID = "KilobitPerSecond"
	UnitMbps          ConceptID = "MegabitPerSecond"
	UnitRequestPerSec ConceptID = "RequestPerSecond"
	UnitMilliwattHour ConceptID = "MilliwattHour"
)

// Service QoS ontology concept IDs (Fig. III.4).
const (
	ServiceQoSProperty ConceptID = "ServiceQoSProperty"

	Performance   ConceptID = "Performance"
	ResponseTime  ConceptID = "ResponseTime"
	ExecutionTime ConceptID = "ExecutionTime"
	Latency       ConceptID = "TransmissionLatency"
	Throughput    ConceptID = "Throughput"
	Jitter        ConceptID = "Jitter"

	Dependability ConceptID = "Dependability"
	Availability  ConceptID = "Availability"
	Reliability   ConceptID = "Reliability"
	Robustness    ConceptID = "Robustness"
	Accuracy      ConceptID = "Accuracy"

	Cost        ConceptID = "Cost"
	Price       ConceptID = "Price"
	PenaltyRate ConceptID = "PenaltyRate"

	Security        ConceptID = "Security"
	Authentication  ConceptID = "Authentication"
	Authorization   ConceptID = "Authorization"
	Confidentiality ConceptID = "Confidentiality"
	Integrity       ConceptID = "Integrity"
	EncryptionLevel ConceptID = "EncryptionLevel"

	Transaction    ConceptID = "Transaction"
	Atomicity      ConceptID = "Atomicity"
	Compensability ConceptID = "Compensability"

	ContentQuality  ConceptID = "ContentQuality"  // QoC, after Chang & Lee
	MediaQuality    ConceptID = "MediaQuality"    // e.g. encoding quality of streams
	ContentAccuracy ConceptID = "ContentAccuracy" // precision of processed information
)

// Infrastructure QoS ontology concept IDs (Fig. III.3).
const (
	InfrastructureQoSProperty ConceptID = "InfrastructureQoSProperty"

	NetworkQoS         ConceptID = "NetworkQoS"
	Bandwidth          ConceptID = "Bandwidth"
	NetworkLatency     ConceptID = "NetworkLatency"
	NetworkJitter      ConceptID = "NetworkJitter"
	PacketLoss         ConceptID = "PacketLoss"
	SignalStrength     ConceptID = "SignalStrength"
	NetworkReliability ConceptID = "NetworkReliability"

	DeviceQoS       ConceptID = "DeviceQoS"
	CPUSpeed        ConceptID = "CPUSpeed"
	MemoryCapacity  ConceptID = "MemoryCapacity"
	StorageCapacity ConceptID = "StorageCapacity"
	BatteryLife     ConceptID = "BatteryLife"
	ScreenQuality   ConceptID = "ScreenQuality"
	DeviceLoad      ConceptID = "DeviceLoad"
)

// User QoS ontology concept IDs (Fig. III.5).
const (
	UserQoSConcept   ConceptID = "UserQoS"
	QoSRequirement   ConceptID = "QoSRequirement"
	GlobalConstraint ConceptID = "GlobalQoSConstraint"
	LocalConstraint  ConceptID = "LocalQoSConstraint"
	QoSPreference    ConceptID = "QoSPreference"
	PreferenceWeight ConceptID = "PreferenceWeight"
	PerceivedQoS     ConceptID = "PerceivedQoS"
	SatisfactionTier ConceptID = "SatisfactionTier"
	TierDelighted    ConceptID = "DelightedTier"
	TierSatisfied    ConceptID = "SatisfiedTier"
	TierTolerable    ConceptID = "TolerableTier"
	TierFrustrated   ConceptID = "FrustratedTier"
)

// CoreQoS builds the QoS Core ontology: the domain-independent upper model
// that the three lower ontologies specialise.
func CoreQoS() *Ontology {
	o := New("qos-core")
	o.MustAddConcept(QoSConcept)
	// QoSProperty is the root of all quality properties; the service,
	// infrastructure and user ontologies specialise it.
	o.MustAddConcept(QoSProperty, QoSConcept)
	o.MustAddConcept(QoSMetric, QoSConcept)
	o.MustAddConcept(QoSUnit, QoSConcept)
	o.MustAddConcept(QoSValue, QoSConcept)
	o.MustAddConcept(QoSDirection, QoSConcept)
	o.MustAddConcept(DirectionUpward, QoSDirection)
	o.MustAddConcept(DirectionDownward, QoSDirection)
	o.MustAddConcept(AdvertisedValue, QoSValue)
	o.MustAddConcept(MeasuredValue, QoSValue)
	o.MustAddConcept(PredictedValue, QoSValue)
	o.MustAddConcept(MetricGauge, QoSMetric)
	o.MustAddConcept(MetricRate, QoSMetric)
	o.MustAddConcept(MetricProbability, QoSMetric)
	o.MustAddConcept(MetricCounter, QoSMetric)
	for _, u := range []ConceptID{
		UnitMillisecond, UnitSecond, UnitEuro, UnitCent, UnitPercent,
		UnitRatio, UnitKbps, UnitMbps, UnitRequestPerSec, UnitMilliwattHour,
	} {
		o.MustAddConcept(u, QoSUnit)
	}
	return o
}

// ServiceQoS builds the Service QoS ontology covering the qualities of
// application services: performance, dependability, cost, security,
// transaction, and content quality.
func ServiceQoS() *Ontology {
	o := CoreQoS()
	o.name = "qos-service"
	o.MustAddConcept(ServiceQoSProperty, QoSProperty)

	o.MustAddConcept(Performance, ServiceQoSProperty)
	o.MustAddConcept(ResponseTime, Performance)
	o.MustAddConcept(ExecutionTime, ResponseTime)
	o.MustAddConcept(Latency, ResponseTime)
	o.MustAddConcept(Throughput, Performance)
	o.MustAddConcept(Jitter, Performance)

	o.MustAddConcept(Dependability, ServiceQoSProperty)
	o.MustAddConcept(Availability, Dependability)
	o.MustAddConcept(Reliability, Dependability)
	o.MustAddConcept(Robustness, Dependability)
	o.MustAddConcept(Accuracy, Dependability)

	o.MustAddConcept(Cost, ServiceQoSProperty)
	o.MustAddConcept(Price, Cost)
	o.MustAddConcept(PenaltyRate, Cost)

	o.MustAddConcept(Security, ServiceQoSProperty)
	o.MustAddConcept(Authentication, Security)
	o.MustAddConcept(Authorization, Security)
	o.MustAddConcept(Confidentiality, Security)
	o.MustAddConcept(Integrity, Security)
	o.MustAddConcept(EncryptionLevel, Security)

	o.MustAddConcept(Transaction, ServiceQoSProperty)
	o.MustAddConcept(Atomicity, Transaction)
	o.MustAddConcept(Compensability, Transaction)

	o.MustAddConcept(ContentQuality, ServiceQoSProperty)
	o.MustAddConcept(MediaQuality, ContentQuality)
	o.MustAddConcept(ContentAccuracy, ContentQuality)

	// Directions.
	for _, c := range []ConceptID{ResponseTime, ExecutionTime, Latency, Jitter, Price, PenaltyRate} {
		o.AddTriple(c, PredHasDirection, DirectionDownward)
	}
	for _, c := range []ConceptID{Throughput, Availability, Reliability, Robustness, Accuracy,
		EncryptionLevel, MediaQuality, ContentAccuracy} {
		o.AddTriple(c, PredHasDirection, DirectionUpward)
	}
	// Metrics and units.
	o.AddTriple(ResponseTime, PredHasMetric, MetricGauge)
	o.AddTriple(ResponseTime, PredHasUnit, UnitMillisecond)
	o.AddTriple(Throughput, PredHasMetric, MetricRate)
	o.AddTriple(Throughput, PredHasUnit, UnitRequestPerSec)
	o.AddTriple(Availability, PredHasMetric, MetricProbability)
	o.AddTriple(Availability, PredHasUnit, UnitRatio)
	o.AddTriple(Reliability, PredHasMetric, MetricProbability)
	o.AddTriple(Reliability, PredHasUnit, UnitRatio)
	o.AddTriple(Price, PredHasMetric, MetricGauge)
	o.AddTriple(Price, PredHasUnit, UnitEuro)

	// Common vocabulary aliases found across provider descriptions.
	o.MustAddAlias("Delay", ResponseTime)
	o.MustAddAlias("ResponseDelay", ResponseTime)
	o.MustAddAlias("Duration", ExecutionTime)
	o.MustAddAlias("Uptime", Availability)
	o.MustAddAlias("SuccessRate", Reliability)
	o.MustAddAlias("Fee", Price)
	o.MustAddAlias("Charge", Price)
	o.MustAddAlias("Rate", Throughput)
	return o
}

// InfrastructureQoS builds the Infrastructure QoS ontology covering the
// network and device qualities that underpin end-to-end QoS in pervasive
// environments.
func InfrastructureQoS() *Ontology {
	o := CoreQoS()
	o.name = "qos-infrastructure"
	o.MustAddConcept(InfrastructureQoSProperty, QoSProperty)

	o.MustAddConcept(NetworkQoS, InfrastructureQoSProperty)
	o.MustAddConcept(Bandwidth, NetworkQoS)
	o.MustAddConcept(NetworkLatency, NetworkQoS)
	o.MustAddConcept(NetworkJitter, NetworkQoS)
	o.MustAddConcept(PacketLoss, NetworkQoS)
	o.MustAddConcept(SignalStrength, NetworkQoS)
	o.MustAddConcept(NetworkReliability, NetworkQoS)

	o.MustAddConcept(DeviceQoS, InfrastructureQoSProperty)
	o.MustAddConcept(CPUSpeed, DeviceQoS)
	o.MustAddConcept(MemoryCapacity, DeviceQoS)
	o.MustAddConcept(StorageCapacity, DeviceQoS)
	o.MustAddConcept(BatteryLife, DeviceQoS)
	o.MustAddConcept(ScreenQuality, DeviceQoS)
	o.MustAddConcept(DeviceLoad, DeviceQoS)

	for _, c := range []ConceptID{NetworkLatency, NetworkJitter, PacketLoss, DeviceLoad} {
		o.AddTriple(c, PredHasDirection, DirectionDownward)
	}
	for _, c := range []ConceptID{Bandwidth, SignalStrength, NetworkReliability, CPUSpeed,
		MemoryCapacity, StorageCapacity, BatteryLife, ScreenQuality} {
		o.AddTriple(c, PredHasDirection, DirectionUpward)
	}
	o.AddTriple(Bandwidth, PredHasUnit, UnitKbps)
	o.AddTriple(NetworkLatency, PredHasUnit, UnitMillisecond)
	o.AddTriple(PacketLoss, PredHasUnit, UnitRatio)
	o.AddTriple(BatteryLife, PredHasUnit, UnitMilliwattHour)
	return o
}

// UserQoS builds the User QoS ontology covering user-side QoS concepts:
// requirements (global and local constraints), preferences (weights) and
// perceived quality (satisfaction tiers).
func UserQoS() *Ontology {
	o := CoreQoS()
	o.name = "qos-user"
	o.MustAddConcept(UserQoSConcept, QoSConcept)
	o.MustAddConcept(QoSRequirement, UserQoSConcept)
	o.MustAddConcept(GlobalConstraint, QoSRequirement)
	o.MustAddConcept(LocalConstraint, QoSRequirement)
	o.MustAddConcept(QoSPreference, UserQoSConcept)
	o.MustAddConcept(PreferenceWeight, QoSPreference)
	o.MustAddConcept(PerceivedQoS, UserQoSConcept)
	o.MustAddConcept(SatisfactionTier, PerceivedQoS)
	o.MustAddConcept(TierDelighted, SatisfactionTier)
	o.MustAddConcept(TierSatisfied, SatisfactionTier)
	o.MustAddConcept(TierTolerable, SatisfactionTier)
	o.MustAddConcept(TierFrustrated, SatisfactionTier)
	o.AddTriple(QoSRequirement, PredAppliesTo, QoSProperty)
	o.AddTriple(QoSPreference, PredAppliesTo, QoSProperty)
	return o
}

// Pervasive merges the four QoS ontologies into the single shared model
// used by the middleware, and records the end-to-end dependencies between
// service-level and infrastructure-level properties (e.g. service response
// time depends on network latency and bandwidth).
func Pervasive() *Ontology {
	o := ServiceQoS()
	o.name = "qos-pervasive"
	for _, src := range []*Ontology{InfrastructureQoS(), UserQoS()} {
		if err := o.Merge(src); err != nil {
			panic(err)
		}
	}
	// End-to-end dependencies (the crux of the end-to-end model): the QoS
	// perceived at the user side is a function of both service-level and
	// infrastructure-level properties.
	o.AddTriple(ResponseTime, PredDependsOn, NetworkLatency)
	o.AddTriple(ResponseTime, PredDependsOn, Bandwidth)
	o.AddTriple(ResponseTime, PredDependsOn, DeviceLoad)
	o.AddTriple(Availability, PredDependsOn, SignalStrength)
	o.AddTriple(Availability, PredDependsOn, BatteryLife)
	o.AddTriple(Reliability, PredDependsOn, NetworkReliability)
	o.AddTriple(Reliability, PredDependsOn, PacketLoss)
	o.AddTriple(Throughput, PredDependsOn, Bandwidth)
	o.AddTriple(MediaQuality, PredDependsOn, Bandwidth)
	o.AddTriple(MediaQuality, PredDependsOn, NetworkJitter)
	return o
}
