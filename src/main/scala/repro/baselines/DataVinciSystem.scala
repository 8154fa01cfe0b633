package repro.baselines

import repro.core.{DataVinci, Table}

/** Adapter exposing the DataVinci pipeline through the common evaluation
  * interface, with the configuration (including the Table-9 ablations)
  * chosen at construction.
  */
final class DataVinciSystem(cfg: DataVinci.Config = DataVinci.Config(),
                            label: String = "DataVinci") extends CleaningSystem {
  def name: String = label

  def clean(table: Table): Map[Int, ColumnOutcome] =
    DataVinci.cleanTable(table, cfg).map { case (c, res) =>
      c -> ColumnOutcome(res.errors, res.repairs.flatMap { case (r, cr) => cr.suggestion.map(r -> _) })
    }
}
