package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.repair.Predicates

/** DataFrame-level DataVinci: learn a per-column model on the driver from a
  * (bounded) sample of the column, broadcast it, and apply detection/repair
  * as a UDF over partitions — the distributed-dataflow rendering of the
  * paper's per-column majority-pattern pipeline.
  *
  * The broadcast model carries the significant-pattern regexes, the values
  * the model flagged at learning time and the repair map for them. A value
  * is an error when the model flagged it (a semantic error such as a
  * misspelled city matches its mask's alternation, which holds the
  * misspelled surface) or when it matches no regex, so values unseen at
  * learning time are still *detected* on the executors (their repair would
  * need the row context and is left null).
  */
object DataVinciSpark {

  /** Serializable column model. */
  final case class ColumnModel(patternRegexes: Vector[String],
                               repairs: Map[String, String],
                               errorValues: Set[String]) {
    @transient private lazy val compiled =
      patternRegexes.map(java.util.regex.Pattern.compile)
    def isError(v: String): Boolean =
      errorValues(v) || patternRegexes.nonEmpty && !compiled.exists(_.matcher(v).matches())
    def repair(v: String): Option[String] = repairs.get(v)
  }

  /** Learn the model for one column from up to `maxSample` values. Masked
    * semantic substrings make the learned regexes concrete again by
    * replacing each mask token with its entity alternation.
    */
  def learnColumnModel(values: Vector[String], cfg: DataVinci.Config = DataVinci.Config()): ColumnModel = {
    val table = Table.of("col" -> values)
    val model = new PatternModel(table, 0, values.indices, cfg, Predicates.featuresOf(table))
    val res   = DataVinci.cleanModel(model)
    // regexes over *unmasked* strings: substitute each mask token with the
    // alternation of surfaces observed in this column (token-level rebuild —
    // string surgery would break \Q...\E quoting)
    val maskAlternation: Map[String, String] = model.mvs.flatMap(_.occs).groupBy(_.semType).map {
      case (t, occs) =>
        t -> occs.map(o => java.util.regex.Pattern.quote(o.original)).distinct.sorted.mkString("(?:", "|", ")")
    }
    import repro.core.pattern._
    def tokRegex(t: Tok): String = t match {
      case MaskTok(st) => maskAlternation.getOrElse(st, t.regex)
      case Group(ch)   => ch.map(tokRegex).mkString("(?:", "", ")+")
      case other       => other.regex
    }
    val regexes = res.significant.map { case (p, _) => p.toks.map(tokRegex).mkString }
    val repairMap = res.repairs.flatMap { case (r, cr) => cr.suggestion.map(values(r) -> _) }
    ColumnModel(regexes, repairMap, res.errors.map(values))
  }

  /** Detect and repair `column` of `df`: returns `df` with two extra
    * columns, `<column>__error` (boolean) and `<column>__repair` (the
    * suggested value, or the original when clean).
    */
  def repairColumn(df: DataFrame, column: String,
                   cfg: DataVinci.Config = DataVinci.Config(),
                   maxSample: Int = 20000): DataFrame = {
    val spark = df.sparkSession
    val values = df.select(col(column).cast("string")).na.fill("")
      .limit(maxSample).collect().map(_.getString(0)).toVector
    val model = learnColumnModel(values, cfg)
    val bc = spark.sparkContext.broadcast(model)

    val errCol = s"${column}__error"
    val errUdf = udf { (v: String) => bc.value.isError(Option(v).getOrElse("")) }
    // the repair reads the error column, so each row's regexes run once
    val repUdf = udf { (v: String, err: Boolean) =>
      val s = Option(v).getOrElse("")
      if (err) bc.value.repair(s).orNull else s
    }
    df.withColumn(errCol, errUdf(col(column)))
      .withColumn(s"${column}__repair", repUdf(col(column), col(errCol)))
  }
}
