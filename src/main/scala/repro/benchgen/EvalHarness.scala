package repro.benchgen

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.baselines._
import repro.core.{DataVinci, ExecutionGuided, Table}
import repro.formulas.FormulaParser

/** System registry for the evaluation (Table 4). Systems are constructed on
  * the executors (they are cheap, stateless objects), so the harness can
  * fan tables out across cores with the Dataset API.
  */
object Systems {
  /** All detection(/repair) systems of Tables 5–7, in paper order. */
  val all: Vector[String] = Vector(
    "WMRR", "HoloClean", "Raha", "Potters-Wheel", "Auto-Detect", "T5", "GPT-3.5", "DataVinci")

  def make(name: String): CleaningSystem = name match {
    case "WMRR"          => new Wmrr()
    case "HoloClean"     => new HoloCleanLite()
    case "Raha"          => new Raha()
    case "Potters-Wheel" => new PottersWheel()
    case "Auto-Detect"   => new AutoDetect()
    case "T5"            => new T5Sim()
    case "GPT-3.5"       => new Gpt35Sim()
    case "DataVinci"     => new DataVinciSystem()
    // Table-9 ablations
    case "NoSemantic"    => new DataVinciSystem(DataVinci.Config(semantic = false), name)
    case "LimitedConc"   => new DataVinciSystem(DataVinci.Config(limitedSemanticConcretization = true), name)
    case "NoLearnedConc" => new DataVinciSystem(DataVinci.Config(learnedConcretization = false), name)
    case "EditDistRank"  => new DataVinciSystem(DataVinci.Config(editDistanceRanking = true), name)
    // Table 8's unsupervised comparison point
    case "DataVinci Unsupervised" => new DataVinciSystem(label = name)
    case other           => throw new IllegalArgumentException(s"unknown system $other")
  }
}

/** Per-cell evaluation outcome — the flat fact table all metric queries
  * aggregate over (and the unit the DuckDB oracle cross-checks).
  */
final case class CellOutcome(
    benchmark: String, system: String, tableId: Long, col: Int, row: Int,
    archetype: String, isError: Boolean, certain: Boolean,
    dirty: String, clean: String,
    flagged: Boolean, suggestion: String, suggestionValid: Boolean)

/** Per-table execution-guided outcome (Table 8). */
final case class FormulaOutcome(
    system: String, tableId: Long, multiColumn: Boolean, nRows: Int,
    failingBefore: Int, failingAfter: Int)

/** Spark-parallel evaluation harness: fans benchmark tables out across the
  * cluster, runs every system per table, and returns the flat outcome
  * dataset that the Table-5/6/7/9 metrics aggregate.
  */
object EvalHarness {

  /** Run `systems` over every table; one [[CellOutcome]] per (system, cell). */
  def run(spark: SparkSession, tables: Dataset[GenTable], systems: Seq[String]): Dataset[CellOutcome] = {
    import spark.implicits._
    val sysNames = systems.toVector
    tables.flatMap { t =>
      val dirty  = t.dirtyTable
      val labels = t.supervisionLabels
      sysNames.flatMap { sysName =>
        val outcome = Systems.make(sysName).cleanWithLabels(dirty, labels)
        t.cells.map { cell =>
          val co      = outcome.get(cell.col)
          val flagged = co.exists(_.errors.contains(cell.row))
          val sugg    = co.flatMap(_.repairs.get(cell.row)).getOrElse("")
          val arch    = t.archetypeNames(cell.col)
          val valid   = sugg.nonEmpty && Archetypes.byName(arch).valid(sugg)
          CellOutcome(t.benchmark, sysName, t.tableId, cell.col, cell.row, arch,
            cell.isError, cell.certain, cell.dirty, cell.clean, flagged, sugg, valid)
        }
      }
    }
  }

  /** Table-8 protocol: apply each system's repairs *only* to inputs of rows
    * whose formula execution fails, then re-execute (`ExecutionGuided.applied`).
    * `DataVinci+Execution` uses execution-guided learning; every other system,
    * `DataVinci Unsupervised` (the plain pipeline) among them, cleans the
    * whole table and is held to that protocol; `No Repair` is the starting
    * point.
    */
  def runFormulas(spark: SparkSession, tables: Dataset[GenTable],
                  systems: Seq[String]): Dataset[FormulaOutcome] = {
    import spark.implicits._
    val sysNames = systems.toVector
    tables.flatMap { t =>
      val dirty  = t.dirtyTable
      val multi  = t.inputCols.size > 1
      val expr   = FormulaParser.parse(t.formula).toOption.get
      val before = ExecutionGuided.failingRows(dirty, expr)
      sysNames.map { sysName =>
        val after: Set[Int] = sysName match {
          case "No Repair" => before
          case "DataVinci+Execution" =>
            ExecutionGuided.clean(dirty, expr, t.inputCols).failingAfter
          case other =>
            val outcome = Systems.make(other).cleanWithLabels(dirty, t.supervisionLabels)
            val repairs = for {
              c <- t.inputCols
              co <- outcome.get(c).toVector
              r <- before.toVector
              s <- co.repairs.get(r)
            } yield (c, r) -> s
            ExecutionGuided.applied(dirty, expr, before, repairs.toMap).failingAfter
        }
        FormulaOutcome(sysName, t.tableId, multi, t.nRows, before.size, after.size)
      }
    }
  }
}
