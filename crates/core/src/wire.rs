//! JSON codecs for sharded (multi-worker) execution and the persistent
//! cache tier.
//!
//! A cluster coordinator re-encodes slices of a sweep as protocol requests
//! for its workers and re-hydrates the rows they stream back, and the
//! on-disk tier ([`crate::persist`]) stores each [`Evaluation`] in the same
//! JSON form and reads it back through [`evaluation_from_value`]. Two
//! families of helpers live here:
//!
//! * **Spec-form encoders** — [`sweep_spec_to_value`] and friends render a
//!   typed spec in exactly the JSON shape the [`spec`](crate::spec) decoders
//!   accept, such that `decode(encode(x)) == x`. The report label is always
//!   emitted explicitly so the decoder's default-label logic can never
//!   change a round-tripped strategy. A
//!   [`FactoryConfig`](msfu_distill::FactoryConfig) travels in its
//!   derived form (`{"k", "levels", "reuse": "Reuse"|"NoReuse",
//!   "barriers"}`), the same form reports and cache records carry, which
//!   [`factory_from_json`] reads back.
//! * **Result decoders** — the workspace serde shim derives serialisation
//!   only, so turning a worker's serialised [`SweepResults`] back into typed
//!   rows is spelled out by hand ([`sweep_results_from_value`],
//!   [`evaluation_from_value`], …).
//!
//! Both directions are pure data transforms; together they are what makes
//! sharded and disk-served output byte-identical to serial, and every
//! encoder is paired with a round-trip test below.

use serde::{Serialize, Value};

use msfu_graph::metrics::MappingMetrics;

use crate::pipeline::RoundBreakdown;
use crate::spec::{factory_from_json, Fields};
use crate::{
    CoreError, Evaluation, EvaluationConfig, Result, Strategy, SweepResults, SweepRow, SweepSpec,
};

/// Builds the decode-failure error: a malformed worker payload is a remote
/// fault, not a local spec error.
fn wire_err(message: String) -> CoreError {
    CoreError::Remote {
        code: "E_REMOTE".to_string(),
        message,
    }
}

fn fields<'a>(value: &'a Value, ctx: &'a str) -> Result<Fields<'a, CoreError>> {
    Fields::new(value, ctx, wire_err)
}

/// Decodes a serialised [`Evaluation`] record.
///
/// # Errors
///
/// Returns [`CoreError::Remote`] naming the missing or mistyped field.
pub fn evaluation_from_value(value: &Value) -> Result<Evaluation> {
    let mut f = fields(value, "evaluation")?;
    let evaluation = Evaluation {
        strategy: f.str("strategy")?.to_string(),
        factory: factory_from_json(f.value("factory")?)
            .map_err(|e| f.error(format_args!("`factory`: {e}")))?,
        latency_cycles: f.u64("latency_cycles")?,
        area: f.u64("area")? as usize,
        volume: f.u64("volume")?,
        stall_cycles: f.u64("stall_cycles")?,
        routing_conflicts: f.u64("routing_conflicts")?,
        critical_path_cycles: f.u64("critical_path_cycles")?,
        critical_volume: f.u64("critical_volume")?,
        logical_qubits: f.u64("logical_qubits")? as usize,
    };
    f.finish()?;
    Ok(evaluation)
}

/// Decodes a serialised [`RoundBreakdown`] entry.
///
/// # Errors
///
/// Returns [`CoreError::Remote`] naming the missing or mistyped field.
pub fn round_breakdown_from_value(value: &Value) -> Result<RoundBreakdown> {
    let mut f = fields(value, "breakdown")?;
    let breakdown = RoundBreakdown {
        round: f.u64("round")? as usize,
        round_cycles: f.u64("round_cycles")?,
        permutation_cycles: f.u64("permutation_cycles")?,
    };
    f.finish()?;
    Ok(breakdown)
}

/// Decodes a serialised [`MappingMetrics`] record.
///
/// # Errors
///
/// Returns [`CoreError::Remote`] naming the missing or mistyped field.
pub fn mapping_metrics_from_value(value: &Value) -> Result<MappingMetrics> {
    let mut f = fields(value, "metrics")?;
    let metrics = MappingMetrics {
        edge_crossings: f.u64("edge_crossings")? as usize,
        avg_edge_length: f.f64("avg_edge_length")?,
        avg_edge_spacing: f.f64("avg_edge_spacing")?,
    };
    f.finish()?;
    Ok(metrics)
}

/// Decodes a serialised [`SweepRow`] (the optional `breakdown` and `metrics`
/// fields treat both `null` and absence as [`None`]).
///
/// # Errors
///
/// Returns [`CoreError::Remote`] naming the offending field.
pub fn sweep_row_from_value(value: &Value) -> Result<SweepRow> {
    let mut f = fields(value, "row")?;
    let row = SweepRow {
        label: f.str("label")?.to_string(),
        evaluation: evaluation_from_value(f.value("evaluation")?)?,
        breakdown: match f.opt_array("breakdown")? {
            Some(items) => Some(
                items
                    .iter()
                    .map(round_breakdown_from_value)
                    .collect::<Result<_>>()?,
            ),
            None => None,
        },
        metrics: match f.opt_value("metrics") {
            Some(v) => Some(mapping_metrics_from_value(v)?),
            None => None,
        },
    };
    f.finish()?;
    Ok(row)
}

/// Decodes a serialised [`SweepResults`] document.
///
/// # Errors
///
/// Returns [`CoreError::Remote`] naming the offending field.
pub fn sweep_results_from_value(value: &Value) -> Result<SweepResults> {
    let mut f = fields(value, "results")?;
    let results = SweepResults {
        name: f.str("name")?.to_string(),
        rows: f
            .array("rows")?
            .iter()
            .map(sweep_row_from_value)
            .collect::<Result<_>>()?,
    };
    f.finish()?;
    Ok(results)
}

/// Encodes a strategy in the spec form accepted by
/// [`strategy_from_json`](crate::spec::strategy_from_json): the line-up
/// key, an *explicit* label, and the flattened parameter bag (already in
/// sorted key order courtesy of `MapperParams`).
pub fn strategy_to_spec_value(strategy: &Strategy) -> Value {
    let mut entries = vec![
        (
            "strategy".to_string(),
            Value::Str(strategy.key().to_string()),
        ),
        (
            "label".to_string(),
            Value::Str(strategy.short_name().to_string()),
        ),
    ];
    for (name, value) in strategy.params().iter() {
        entries.push((name.to_string(), value.to_value()));
    }
    Value::Object(entries)
}

/// Encodes an evaluation configuration in the spec form accepted by
/// [`eval_from_json`](crate::spec::eval_from_json), with every latency field
/// spelled out so defaults can never drift between coordinator and worker.
pub fn eval_to_spec_value(eval: &EvaluationConfig) -> Value {
    let sim = &eval.sim;
    let latency = Value::Object(vec![
        (
            "single_qubit".to_string(),
            Value::UInt(sim.latency.single_qubit),
        ),
        ("t_gate".to_string(), Value::UInt(sim.latency.t_gate)),
        ("cnot".to_string(), Value::UInt(sim.latency.cnot)),
        (
            "cxx_per_target".to_string(),
            Value::UInt(sim.latency.cxx_per_target),
        ),
        ("inject".to_string(), Value::UInt(sim.latency.inject)),
        ("measure".to_string(), Value::UInt(sim.latency.measure)),
        ("init".to_string(), Value::UInt(sim.latency.init)),
    ]);
    Value::Object(vec![
        (
            "routing".to_string(),
            Value::Str(sim.routing.name().to_string()),
        ),
        ("cycle_limit".to_string(), Value::UInt(sim.cycle_limit)),
        ("latency".to_string(), latency),
    ])
}

/// Encodes a sweep spec in the form accepted by [`SweepSpec::from_value`],
/// with the grid flattened to explicit `points` (a shard is a point slice;
/// grids have already been expanded by the time slicing happens).
pub fn sweep_spec_to_value(spec: &SweepSpec) -> Value {
    let points: Vec<Value> = spec
        .points
        .iter()
        .map(|p| {
            Value::Object(vec![
                ("label".to_string(), Value::Str(p.label.clone())),
                ("factory".to_string(), p.factory.to_value()),
                ("strategy".to_string(), strategy_to_spec_value(&p.strategy)),
            ])
        })
        .collect();
    Value::Object(
        vec![
            ("name".to_string(), Value::Str(spec.name.clone())),
            ("eval".to_string(), eval_to_spec_value(&spec.eval)),
            (
                "collect_breakdowns".to_string(),
                Value::Bool(spec.collect_breakdowns),
            ),
            (
                "collect_mapping_metrics".to_string(),
                Value::Bool(spec.collect_mapping_metrics),
            ),
            ("cache".to_string(), Value::Bool(spec.use_eval_cache)),
            ("lanes".to_string(), Value::UInt(spec.lanes as u64)),
            ("points".to_string(), Value::Array(points)),
        ]
        .into_iter()
        // `cache_dir` is emitted only when set: absent and `null` decode the
        // same, and the common memory-only spec stays byte-stable.
        .chain(spec.cache_dir.iter().map(|dir| {
            (
                "cache_dir".to_string(),
                Value::Str(dir.to_string_lossy().into_owned()),
            )
        }))
        .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::{FactoryConfig, ReusePolicy};

    fn spec_fixture() -> SweepSpec {
        SweepSpec::new("wire", EvaluationConfig::default())
            .point("a", FactoryConfig::single_level(2), Strategy::linear())
            .point(
                "b",
                FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse),
                Strategy::random_with_slack(7, 1.5),
            )
            .point(
                "c",
                FactoryConfig::single_level(3),
                Strategy::graph_partition(11).with_label("custom"),
            )
            .with_breakdowns()
            .with_mapping_metrics()
            .with_eval_cache(false)
            .with_lanes(4)
    }

    #[test]
    fn sweep_spec_round_trips_through_spec_form() {
        let spec = spec_fixture();
        let decoded = SweepSpec::from_value(&sweep_spec_to_value(&spec)).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn cache_dir_rides_the_shard_request() {
        // A coordinator's cache directory must reach its workers, so each
        // shard warms (and is warmed by) the shared persistent tier.
        let spec = spec_fixture().with_cache_dir("shared/eval-cache");
        let value = sweep_spec_to_value(&spec);
        let decoded = SweepSpec::from_value(&value).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(
            decoded.cache_dir.as_deref(),
            Some(std::path::Path::new("shared/eval-cache"))
        );
        // Without a cache dir the field is omitted entirely.
        let bare = sweep_spec_to_value(&spec_fixture());
        assert!(bare.get("cache_dir").is_none());
    }

    #[test]
    fn spec_form_survives_json_text() {
        // The coordinator ships shard requests as NDJSON text, so the round
        // trip must also hold across serialisation to a string and back.
        let spec = spec_fixture();
        let text = serde_json::to_string(&sweep_spec_to_value(&spec)).unwrap();
        let decoded = SweepSpec::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn explicit_label_pins_default_label_logic() {
        // "Random" with an expansion param would default to "Random+S"; an
        // explicit label must keep whatever the strategy actually carries.
        let strategy = Strategy::random_with_slack(3, 2.0).with_label("Random");
        let decoded = crate::spec::strategy_from_json(&strategy_to_spec_value(&strategy)).unwrap();
        assert_eq!(decoded, strategy);
    }

    #[test]
    fn rows_round_trip_through_serialised_form() {
        let results = spec_fixture().run().unwrap();
        let value = results.to_value();
        let decoded = sweep_results_from_value(&value).unwrap();
        assert_eq!(decoded, results);
        // And across NDJSON text, like a worker response travels.
        let text = serde_json::to_string(&value).unwrap();
        let decoded = sweep_results_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded, results);
    }

    #[test]
    fn decode_errors_name_the_field_and_are_remote() {
        let err = sweep_results_from_value(&Value::Object(vec![(
            "name".to_string(),
            Value::Str("x".to_string()),
        )]))
        .unwrap_err();
        match err {
            CoreError::Remote { code, message } => {
                assert_eq!(code, "E_REMOTE");
                assert!(message.contains("rows"), "message was: {message}");
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
        // A malformed nested factory is a remote fault too, never the
        // spec error the factory decoder answers on its own.
        let mut evaluation = spec_fixture().run().unwrap().rows[0].evaluation.to_value();
        let Value::Object(entries) = &mut evaluation else {
            panic!("an evaluation serialises as an object")
        };
        for (key, value) in entries.iter_mut() {
            if key == "factory" {
                *value = Value::Object(vec![("k".to_string(), Value::Str("two".to_string()))]);
            }
        }
        match evaluation_from_value(&evaluation).unwrap_err() {
            CoreError::Remote { code, message } => {
                assert_eq!(code, "E_REMOTE");
                assert!(message.contains("factory"), "message was: {message}");
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
    }
}
