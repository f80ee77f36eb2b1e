//! Regenerates Table I: dataset sizes for measurements and reconstructions.

use ptycho_bench::experiments::table1;

fn main() {
    println!("{}", table1().render());
    println!(
        "Paper reference: measurements 1024x1024x4158 / 1024x1024x16632, \
         reconstructions 1536x1536x100 / 3072x3072x100 at 10x10x125 pm^3."
    );
}
