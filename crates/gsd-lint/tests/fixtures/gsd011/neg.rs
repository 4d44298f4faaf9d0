use gsd_io::Storage;

pub fn flush_edges(store: &dyn Storage, key: &str, edges: &[u64]) -> gsd_io::Result<()> {
    let mut buf = Vec::with_capacity(edges.len() * 8);
    for e in edges {
        buf.extend_from_slice(&e.to_le_bytes());
    }
    store.create(key, &buf)
}

pub fn profile(fs: &FrontierStats) -> usize {
    fs.active
}
