package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}

/** The DataFrame/UDF layer: model learned on the driver, detection/repair
  * applied partition-parallel, results oracle-checked against DuckDB.
  */
class DataVinciSparkSpec extends SparkSpec {
  import spark.implicits._

  /** TPC-H-lite customers with a formatted key column, a fraction of which
    * use a corrupted delimiter (underscore instead of dash).
    */
  private def keyedCustomers = SynthData.customer(spark, sf = 0.001)
    .withColumn("c_code",
      when($"c_custkey" % 37 === 0, concat(lit("C_"), $"c_custkey"))
        .otherwise(concat(lit("C-"), $"c_custkey")))

  test("repairColumn flags the corrupted delimiter convention") {
    val out = DataVinciSpark.repairColumn(keyedCustomers, "c_code").cache()
    val flagged = out.filter($"c_code__error").select("c_code").as[String].collect()
    assert(flagged.nonEmpty)
    assert(flagged.forall(_.startsWith("C_")))
    val clean = out.filter(!$"c_code__error").select("c_code").as[String].collect()
    assert(clean.forall(_.startsWith("C-")))
  }

  test("repairColumn suggests pattern-conforming repairs") {
    val out = DataVinciSpark.repairColumn(keyedCustomers, "c_code")
    val repairs = out.filter($"c_code__error").select("c_code", "c_code__repair")
      .as[(String, String)].collect()
    assert(repairs.nonEmpty)
    for ((dirty, repaired) <- repairs) {
      assert(repaired != null, dirty)
      assert(repaired.matches("C-[0-9]+"), s"$dirty -> $repaired")
      assert(repaired == dirty.replace("C_", "C-"))
    }
  }

  test("error counts agree with DuckDB (oracle)") {
    val out = DataVinciSpark.repairColumn(keyedCustomers, "c_code")
      .select($"c_code__error".cast("string").as("err"))
    val agg = out.groupBy("err").agg(count(lit(1)).as("n")).orderBy("err")
    Oracle.assertEquivalent(agg,
      "SELECT err, COUNT(*) AS n FROM outcome GROUP BY err ORDER BY err",
      "outcome" -> out)
  }

  test("repairColumn: repair is the model's repair when flagged, the value (\"\" for null) when clean") {
    val irregular = Seq("alpha", "b-2 x", "C 3", "4.4.4", "ee_e!", "Ff9?", null).toDF("v")
    val noPatterns = DataVinciSpark.repairColumn(irregular, "v").collect()
    assert(noPatterns.forall(r => !r.getBoolean(1)))
    assert(noPatterns.map(r => Option(r.getString(0)).getOrElse("") == r.getString(2)).forall(identity))

    val codes = (Seq.tabulate(12)(i => s"C-$i") ++ Seq("C_7", null)).toDF("c")
    val model = DataVinciSpark.learnColumnModel(Vector.tabulate(12)(i => s"C-$i") ++ Vector("C_7", ""))
    for (r <- DataVinciSpark.repairColumn(codes, "c").collect()) {
      val v = Option(r.getString(0)).getOrElse("")
      assert(r.getBoolean(1) == model.isError(v), v)
      assert(r.getString(2) == (if (model.isError(v)) model.repair(v).orNull else v), v)
    }
  }

  test("repairColumn flags and repairs a misspelled entity that matches its mask's alternation") {
    val cities = Seq("London", "Paris", "Birmingham", "Berlin", "Madrid", "Birminxham", "Rome", "Paris").toDF("city")
    val flagged = DataVinciSpark.repairColumn(cities, "city").filter($"city__error")
      .select("city", "city__error", "city__repair").as[(String, Boolean, String)].collect()
    assert(flagged.toSeq == Seq(("Birminxham", true, "Birmingham")))
  }

  test("learnColumnModel produces concrete regexes for masked columns") {
    val values = Vector("US-123", "IN-292", "UK-021", "FR-456", "DE-777", "usa_837")
    val model = DataVinciSpark.learnColumnModel(values)
    assert(model.patternRegexes.nonEmpty)
    assert(!model.isError("US-123"))
    assert(model.isError("usa_837"))
    assert(model.repair("usa_837").contains("US-837"))
    // unseen values still classified by regex membership
    assert(!model.isError("UK-999"))
    assert(model.isError("zz~11"))
  }

  test("clean column model flags nothing") {
    val model = DataVinciSpark.learnColumnModel(Vector("1", "2", "3", "4", "5"))
    assert((1 to 9).forall(i => !model.isError(i.toString)))
    assert(model.repairs.isEmpty)
  }
}

/** Sanity checks of the provided TPC-H-lite generators, oracle-verified. */
class SynthDataSpec extends SparkSpec {
  import spark.implicits._

  test("customer segment distribution agrees with DuckDB (oracle)") {
    val cust = SynthData.customer(spark, sf = 0.001).cache()
    val agg = cust.groupBy("c_mktsegment").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg,
      "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY c_mktsegment",
      "customer" -> cust.select($"c_mktsegment"))
  }

  test("lineitem aggregation agrees with DuckDB (oracle)") {
    val li = SynthData.lineitem(spark, sf = 0.0005).select($"l_returnflag", $"l_quantity").cache()
    val agg = li.groupBy("l_returnflag")
      .agg(round(sum("l_quantity"), 2).as("qty"), count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg,
      "SELECT l_returnflag, ROUND(SUM(CAST(l_quantity AS DOUBLE)), 2) AS qty, COUNT(*) AS n " +
        "FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> li)
  }
}
