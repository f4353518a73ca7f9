//! Whole user journeys through [`Engine::handle`](crate::Engine::handle):
//! loading a use case or a CSV, choosing the KPI and drivers, training,
//! and the analysis views of the paper's interface, checked response by
//! response as a front end would render them.

#[cfg(test)]
mod tests {
    use crate::protocol::{Request, Response, UseCase};
    use crate::Engine;
    use whatif_core::goal::Goal;
    use whatif_core::model_backend::ModelConfig;
    use whatif_core::perturbation::Perturbation;
    use whatif_core::ErrorCode;

    fn small_deal_session(engine: &Engine) -> u64 {
        match engine
            .handle(Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(220),
                seed: Some(3),
            })
            .unwrap()
        {
            Response::SessionCreated {
                session,
                n_rows,
                columns,
                suggested_kpi,
            } => {
                assert_eq!(n_rows, 220);
                assert!(columns.iter().any(|c| c.name == "Open Marketing Email"));
                assert_eq!(suggested_kpi.as_deref(), Some("Deal Closed?"));
                session
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn fast_config() -> ModelConfig {
        ModelConfig {
            n_trees: 12,
            max_depth: 8,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn list_use_cases() {
        let engine = Engine::new();
        match engine.handle(Request::ListUseCases).unwrap() {
            Response::UseCases(u) => assert_eq!(u.len(), 3),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn full_deal_closing_flow() {
        let engine = Engine::new();
        let id = small_deal_session(&engine);
        assert_eq!(engine.session_count(), 1);

        // Table view (B).
        match engine
            .handle(Request::TableView {
                session: id,
                max_rows: 5,
            })
            .unwrap()
        {
            Response::Table {
                rows, total_rows, ..
            } => {
                assert_eq!(rows.len(), 5);
                assert_eq!(total_rows, 220);
            }
            other => panic!("unexpected: {other:?}"),
        }

        // KPI (C) + drivers (D).
        match engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "Deal Closed?".into(),
            })
            .unwrap()
        {
            Response::KpiSelected { kind, .. } => assert_eq!(kind, "binary"),
            other => panic!("unexpected: {other:?}"),
        }
        match engine
            .handle(Request::SelectDrivers {
                session: id,
                drivers: None,
            })
            .unwrap()
        {
            Response::Drivers { selected } => {
                assert_eq!(selected.len(), 12);
                assert!(!selected.contains(&"Account Name".to_owned()));
            }
            other => panic!("unexpected: {other:?}"),
        }

        // Train.
        match engine
            .handle(Request::Train {
                session: id,
                config: Some(fast_config()),
            })
            .unwrap()
        {
            Response::Trained {
                kind, baseline_kpi, ..
            } => {
                assert_eq!(kind, "random_forest");
                assert!((0.0..=1.0).contains(&baseline_kpi));
            }
            other => panic!("unexpected: {other:?}"),
        }

        // Importance (E).
        match engine
            .handle(Request::DriverImportanceView {
                session: id,
                verify: false,
            })
            .unwrap()
        {
            Response::Importance { importance, .. } => {
                assert_eq!(importance.driver_names.len(), 12)
            }
            other => panic!("unexpected: {other:?}"),
        }

        // Sensitivity (H) + record scenario.
        match engine
            .handle(Request::SensitivityView {
                session: id,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            })
            .unwrap()
        {
            Response::Sensitivity(s) => assert_eq!(s.kpi_name, "Deal Closed?"),
            other => panic!("unexpected: {other:?}"),
        }
        match engine
            .handle(Request::RecordScenario {
                session: id,
                name: "ome +40%".into(),
            })
            .unwrap()
        {
            Response::ScenarioRecorded { id: sid } => assert_eq!(sid, 0),
            other => panic!("unexpected: {other:?}"),
        }

        // Goal inversion (I) with a constraint.
        match engine
            .handle(Request::GoalInversionView {
                session: id,
                goal: Goal::Maximize,
                constraints: vec![whatif_core::DriverConstraint::new(
                    "Open Marketing Email",
                    40.0,
                    80.0,
                )],
                optimizer: Some(whatif_core::OptimizerChoice::RandomSearch { n_evals: 12 }),
                seed: 1,
            })
            .unwrap()
        {
            Response::GoalInversion(g) => {
                let ome = g
                    .driver_percentages
                    .iter()
                    .find(|(d, _)| d == "Open Marketing Email")
                    .unwrap()
                    .1;
                assert!((40.0..=80.0).contains(&ome));
            }
            other => panic!("unexpected: {other:?}"),
        }

        // Scenario listing.
        match engine
            .handle(Request::ListScenarios { session: id })
            .unwrap()
        {
            Response::Scenarios(s) => assert_eq!(s.len(), 1),
            other => panic!("unexpected: {other:?}"),
        }

        // Close.
        assert_eq!(
            engine.handle(Request::CloseSession { session: id }),
            Ok(Response::SessionClosed)
        );
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn csv_upload_flow() {
        let engine = Engine::new();
        let csv = "spend,sales\n1,10\n2,20\n3,30\n4,41\n5,50\n6,61\n7,70\n8,80\n";
        let id = match engine.handle(Request::LoadCsv { csv: csv.into() }).unwrap() {
            Response::SessionCreated {
                session,
                suggested_kpi,
                ..
            } => {
                assert!(suggested_kpi.is_none());
                session
            }
            other => panic!("unexpected: {other:?}"),
        };
        engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "sales".into(),
            })
            .unwrap();
        match engine
            .handle(Request::Train {
                session: id,
                config: None,
            })
            .unwrap()
        {
            Response::Trained { kind, .. } => assert_eq!(kind, "linear"),
            other => panic!("unexpected: {other:?}"),
        }
        // Bad CSV errors.
        assert!(engine.handle(Request::LoadCsv { csv: "".into() }).is_err());
    }

    #[test]
    fn retraining_invalidates_on_selection_change() {
        let engine = Engine::new();
        let id = small_deal_session(&engine);
        engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "Deal Closed?".into(),
            })
            .unwrap();
        engine
            .handle(Request::Train {
                session: id,
                config: Some(fast_config()),
            })
            .unwrap();
        // Changing drivers drops the model.
        engine
            .handle(Request::SelectDrivers {
                session: id,
                drivers: Some(vec!["Call".into(), "Chat".into()]),
            })
            .unwrap();
        let err = engine
            .handle(Request::DriverImportanceView {
                session: id,
                verify: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotTrained);
    }

    #[test]
    fn errors_are_graceful() {
        let engine = Engine::new();
        assert!(engine
            .handle(Request::TableView {
                session: 99,
                max_rows: 1
            })
            .is_err());
        let id = small_deal_session(&engine);
        // Analysis before training.
        assert!(engine
            .handle(Request::DriverImportanceView {
                session: id,
                verify: false
            })
            .is_err());
        // Training before KPI.
        assert!(engine
            .handle(Request::Train {
                session: id,
                config: None
            })
            .is_err());
        // Textual KPI.
        assert!(engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "Account Name".into()
            })
            .is_err());
        // Recording with no outcome.
        assert!(engine
            .handle(Request::RecordScenario {
                session: id,
                name: "x".into()
            })
            .is_err());
        // Unknown session close.
        assert!(engine
            .handle(Request::CloseSession { session: 42 })
            .is_err());
    }

    #[test]
    fn shutdown_acknowledged() {
        let engine = Engine::new();
        assert_eq!(engine.handle(Request::Shutdown), Ok(Response::ShuttingDown));
    }
}
